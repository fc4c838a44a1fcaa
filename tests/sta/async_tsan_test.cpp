/// \file async_tsan_test.cpp
/// Race-detector workload for STA runs issued asynchronously from several
/// caller threads over one shared TimingGraph, as serving sessions share a
/// template graph. Each run walks the levels on the 8-thread pool; all of
/// them must finish race-free and bit-identical to a serial reference.
/// Built as its own target (sta_async_tsan_test) with the `tsan` label so a
/// TG_SANITIZE=thread build runs it (`ctest -L tsan`).

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "gen/suite.hpp"
#include "liberty/library_builder.hpp"
#include "place/placer.hpp"
#include "sta/timer.hpp"
#include "util/parallel.hpp"

namespace tg {
namespace {

/// Same bytes, not ==, so +0.0/-0.0 and NaN payloads count as differences.
void expect_bits_equal(const std::vector<PerCorner>& a,
                       const std::vector<PerCorner>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(PerCorner)), 0)
      << what;
}

class AsyncTsanTest : public ::testing::Test {
 protected:
  void TearDown() override { set_num_threads(saved_); }
  int saved_ = num_threads();
};

TEST_F(AsyncTsanTest, ConcurrentSweepsShareOneGraphSafely) {
  const Library lib = build_library();
  // aes256 at 1/16: its widest levels split, so the three sweeps also
  // share the pool's workers.
  const SuiteEntry entry = suite_entry("aes256", 1.0 / 16);
  Design design = generate_design(entry.spec, lib);
  place_design(design);
  RoutingOptions ropts;
  ropts.mode = RouteMode::kSteiner;
  const DesignRouting routing = route_design(design, ropts);
  const TimingGraph graph(design);

  set_num_threads(1);
  const StaResult ref = run_sta(graph, routing);
  set_num_threads(8);

  // Three 8-thread sweeps on their own caller threads, each into its own
  // StaResult, all reading the one graph.
  std::vector<StaResult> results(3);
  const std::int64_t forked = forked_regions();
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (StaResult& out : results) {
    threads.emplace_back([&graph, &routing, &out] {
      out = run_sta(graph, routing);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GE(forked_regions() - forked, 3) << "every sweep splits a level";

  for (const StaResult& r : results) {
    expect_bits_equal(r.arrival, ref.arrival, "arrival");
    expect_bits_equal(r.rat, ref.rat, "rat");
    expect_bits_equal(r.slack, ref.slack, "slack");
    EXPECT_EQ(std::memcmp(&r.wns_setup, &ref.wns_setup, sizeof(double)), 0)
        << r.wns_setup << " vs " << ref.wns_setup;
    EXPECT_EQ(std::memcmp(&r.tns_setup, &ref.tns_setup, sizeof(double)), 0)
        << r.tns_setup << " vs " << ref.tns_setup;
  }
}

}  // namespace
}  // namespace tg
