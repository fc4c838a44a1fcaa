/// Thread-safety hammer for the obs layer, built to run under
/// TG_SANITIZE=thread (`ctest -L tsan`): pool workers record spans,
/// counters and histogram samples concurrently while the main thread takes
/// snapshots and writes a trace dump mid-flight — exactly the "dump while
/// the pool is busy" pattern the per-thread buffers were designed for.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "util/obs/metrics.hpp"
#include "util/obs/trace.hpp"
#include "util/parallel.hpp"

namespace tg::obs {
namespace {

class ObsTsanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_threads_ = num_threads();
    set_trace_level(kSpanVerbose);
    set_metrics_enabled(true);
    clear_trace();
    reset_metrics();
  }
  void TearDown() override {
    set_metrics_enabled(false);
    set_trace_level(-1);
    clear_trace();
    reset_metrics();
    set_num_threads(saved_threads_);
  }
  int saved_threads_ = 1;
};

TEST_F(ObsTsanTest, ConcurrentSpansCountersAndSnapshots) {
  set_num_threads(8);
  Counter& hits = counter("tsan/hits");
  Histogram& values = histogram("tsan/values");
  const std::string path =
      (std::filesystem::temp_directory_path() / "tg_obs_tsan_trace.json")
          .string();

  for (int round = 0; round < 4; ++round) {
    const Work sixteenth_chunk{kMinChunkWork / 16, 0};  // 16 items a chunk
    parallel_for(0, 4000, sixteenth_chunk, [&](std::int64_t b,
                                               std::int64_t e) {
      TG_TRACE_SCOPE("tsan/chunk", kSpanDetail);
      for (std::int64_t i = b; i < e; ++i) {
        TG_TRACE_SCOPE("tsan/item", kSpanVerbose);
        hits.add(1);
        values.record(static_cast<std::uint64_t>(i));
        TG_METRIC_COUNT("tsan/macro_hits", 1);
        TG_METRIC_GAUGE_SET("tsan/last", i);
      }
    });
    // Snapshot + dump while nothing guarantees the workers' buffers are
    // quiescent relative to other rounds.
    const MetricsSnapshot snap = snapshot_metrics();
    EXPECT_GE(snap.counters.size(), 2u);
    EXPECT_TRUE(write_trace_json(path));
    (void)collected_trace_events();
    (void)trace_stats();
  }

  EXPECT_EQ(hits.value(), 4u * 4000u);
  EXPECT_EQ(counter("tsan/macro_hits").value(), 4u * 4000u);
  const Histogram::Snapshot s = values.snapshot();
  EXPECT_EQ(s.count, 4u * 4000u);
  // Spans either landed in a buffer or were counted as dropped; none lost.
  const TraceStats stats = trace_stats();
  EXPECT_GT(stats.recorded, 0u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tg::obs
