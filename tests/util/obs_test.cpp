#include "util/obs/metrics.hpp"
#include "util/obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/parallel.hpp"

namespace tg::obs {
namespace {

/// Every obs test flips global switches; this fixture restores them and
/// wipes recorded state so suites compose in one process regardless of
/// order.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_trace_level(-1);
    set_metrics_enabled(false);
    clear_trace();
    reset_metrics();
  }
  void TearDown() override {
    set_metrics_enabled(false);
    set_trace_level(-1);
    clear_trace();
    reset_metrics();
  }
};

void leaf_span() { TG_TRACE_SCOPE("test/leaf", kSpanDetail); }

void nested_spans() {
  TG_TRACE_SCOPE("test/outer", kSpanCoarse);
  for (int i = 0; i < 3; ++i) {
    TG_TRACE_SCOPE("test/inner", kSpanDetail);
    leaf_span();
  }
}

TEST_F(ObsTest, DisabledModeRecordsNothing) {
  nested_spans();
  TG_METRIC_COUNT("test/counter", 5);
  EXPECT_TRUE(collected_trace_events().empty());
  EXPECT_EQ(counter("test/counter").value(), 0u);
  EXPECT_EQ(trace_stats().recorded, 0u);
}

TEST_F(ObsTest, SpanNestingDepthsAndNames) {
  set_trace_level(kSpanVerbose);
  nested_spans();
  const std::vector<CollectedEvent> events = collected_trace_events();
  ASSERT_EQ(events.size(), 7u);  // outer + 3 x (inner + leaf)
  int outer = 0, inner = 0, leaf = 0;
  for (const CollectedEvent& ev : events) {
    const std::string name = ev.name;
    if (name == "test/outer") {
      ++outer;
      EXPECT_EQ(ev.depth, 0);
    } else if (name == "test/inner") {
      ++inner;
      EXPECT_EQ(ev.depth, 1);
    } else if (name == "test/leaf") {
      ++leaf;
      EXPECT_EQ(ev.depth, 2);
    } else {
      FAIL() << "unexpected span " << name;
    }
  }
  EXPECT_EQ(outer, 1);
  EXPECT_EQ(inner, 3);
  EXPECT_EQ(leaf, 3);
}

TEST_F(ObsTest, TraceLevelFiltersSpans) {
  set_trace_level(kSpanCoarse);
  nested_spans();
  const std::vector<CollectedEvent> events = collected_trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test/outer");
}

TEST_F(ObsTest, SpanDurationsNestProperly) {
  set_trace_level(kSpanVerbose);
  nested_spans();
  const std::vector<CollectedEvent> events = collected_trace_events();
  const CollectedEvent* outer = nullptr;
  for (const CollectedEvent& ev : events) {
    if (std::string(ev.name) == "test/outer") outer = &ev;
  }
  ASSERT_NE(outer, nullptr);
  for (const CollectedEvent& ev : events) {
    if (&ev == outer) continue;
    EXPECT_GE(ev.start_ns, outer->start_ns);
    EXPECT_LE(ev.start_ns + ev.dur_ns, outer->start_ns + outer->dur_ns);
  }
}

TEST_F(ObsTest, HistogramBucketMath) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), kHistogramBuckets - 1);
  for (int b = 1; b < kHistogramBuckets - 1; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b)), b);
    EXPECT_EQ(Histogram::bucket_lo(b + 1), Histogram::bucket_hi(b) + 1);
  }
}

TEST_F(ObsTest, HistogramSnapshotStats) {
  set_metrics_enabled(true);
  Histogram h;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull}) h.record(v);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 106u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 106.0 / 5.0);
  // Percentiles are bucket-interpolated but clamped to observed bounds.
  EXPECT_GE(s.percentile(0.0), 0.0);
  EXPECT_LE(s.percentile(100.0), 100.0);
  EXPECT_GE(s.percentile(99.0), 3.0);
}

TEST_F(ObsTest, CounterMergesStripes) {
  set_metrics_enabled(true);
  Counter c;
  // One index per chunk: the 1000 adds spread over every worker.
  const Work one_chunk_each{kMinChunkWork, 0};
  parallel_for(0, 1000, one_chunk_each, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) c.add(2);
  });
  EXPECT_EQ(c.value(), 2000u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, GaugeSetMaxKeepsPeak) {
  set_metrics_enabled(true);
  Gauge g;
  g.set_max(3.0);
  g.set_max(7.0);
  g.set_max(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST_F(ObsTest, SnapshotMergeIsThreadCountInvariant) {
  // The merged totals must depend only on what was recorded, not on how
  // the recording work was spread over threads.
  const auto run = [](int threads) {
    set_num_threads(threads);
    reset_metrics();
    Counter& c = counter("test/det_counter");
    Histogram& h = histogram("test/det_hist");
    const Work one_chunk_each{kMinChunkWork, 0};
    parallel_for(0, 512, one_chunk_each, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        c.add(static_cast<std::uint64_t>(i));
        h.record(static_cast<std::uint64_t>(i % 37));
      }
    });
    return std::make_pair(c.value(), h.snapshot());
  };
  set_metrics_enabled(true);
  const int saved = num_threads();
  const auto [c1, h1] = run(1);
  const auto [c8, h8] = run(8);
  set_num_threads(saved);
  EXPECT_EQ(c1, c8);
  EXPECT_EQ(h1.count, h8.count);
  EXPECT_EQ(h1.sum, h8.sum);
  EXPECT_EQ(h1.min, h8.min);
  EXPECT_EQ(h1.max, h8.max);
  EXPECT_EQ(h1.buckets, h8.buckets);
}

TEST_F(ObsTest, SpansFeedHistogramsWhenMetricsOn) {
  set_metrics_enabled(true);  // tracing stays off
  nested_spans();
  EXPECT_TRUE(collected_trace_events().empty());  // no trace...
  const Histogram::Snapshot outer =
      histogram("span/test/outer").snapshot();  // ...but histograms filled
  const Histogram::Snapshot inner = histogram("span/test/inner").snapshot();
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 3u);
}

TEST_F(ObsTest, MetricsJsonRoundTrips) {
  set_metrics_enabled(true);
  counter("test/json_counter").add(42);
  gauge("test/json_gauge").set(1.5);
  histogram("test/json_hist").record(1000);
  const std::string path =
      (std::filesystem::temp_directory_path() / "tg_obs_test_metrics.json")
          .string();
  ASSERT_TRUE(write_metrics_json(path));
  const json::Value root = json::parse_file(path);
  EXPECT_DOUBLE_EQ(root.at("counters").at("test/json_counter").as_number(),
                   42.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("test/json_gauge").as_number(), 1.5);
  const json::Value& h = root.at("histograms").at("test/json_hist");
  EXPECT_DOUBLE_EQ(h.at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("sum").as_number(), 1000.0);
  std::filesystem::remove(path);
}

TEST_F(ObsTest, RegistryReturnsStableReferences) {
  Counter& a = counter("test/stable");
  Counter& b = counter("test/stable");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &counter("test/stable2"));
}

}  // namespace
}  // namespace tg::obs
