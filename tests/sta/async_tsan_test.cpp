/// \file async_tsan_test.cpp
/// Race-detector workload for the async worklist engine: the full STA
/// (forward + backward) and an incremental dirty-cone update at 8 threads
/// on a mid-size design, plus concurrent `run_sta` calls on one shared
/// TimingGraph (as serving sessions share a template graph) racing the
/// lazily built forward/backward DAGs. Built as its own target
/// (sta_async_tsan_test) with the `tsan` label so a TG_SANITIZE=thread
/// build runs exactly this (`ctest -L tsan`) — the publication chain
/// (pending RMW → task fire) is precisely what TSan has to vet.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "gen/suite.hpp"
#include "liberty/library_builder.hpp"
#include "place/placer.hpp"
#include "sta/incremental.hpp"
#include "sta/timer.hpp"
#include "util/parallel.hpp"
#include "util/task_graph.hpp"

namespace tg {
namespace {

class AsyncTsanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_num_threads(8);
    set_sta_engine(StaEngine::kAsync);
    // 8 true workers even on small machines — TSan needs real thread
    // interleavings over the publication chain, not a hardware-capped
    // single-worker walk.
    set_task_dag_workers(8);
  }
  void TearDown() override {
    set_num_threads(saved_threads_);
    set_sta_engine(saved_engine_);
    set_task_dag_workers(saved_workers_);
  }
  int saved_threads_ = num_threads();
  StaEngine saved_engine_ = sta_engine();
  int saved_workers_ = task_dag_workers();
};

TEST_F(AsyncTsanTest, FullStaAndIncrementalConeUnderContention) {
  const Library lib = build_library();
  const SuiteEntry entry = suite_entry("picorv32a", 1.0 / 32);
  Design design = generate_design(entry.spec, lib);
  place_design(design);
  RoutingOptions ropts;
  ropts.mode = RouteMode::kSteiner;
  DesignRouting routing = route_design(design, ropts);
  const TimingGraph graph(design);

  // Forward + backward async sweeps, repeated to give the scheduler a few
  // distinct interleavings.
  for (int i = 0; i < 3; ++i) {
    const StaResult r = run_sta(graph, routing);
    EXPECT_EQ(static_cast<int>(r.arrival.size()), design.num_pins());
  }

  // Incremental dirty-cone worklist.
  IncrementalTimer inc(graph, &routing);
  NetId net = 0;
  for (NetId n = 0; n < design.num_nets(); ++n) {
    if (!design.net(n).is_clock) {
      net = n;
      break;
    }
  }
  for (auto& d : routing.nets[static_cast<std::size_t>(net)].sink_delay) {
    for (double& v : d) v *= 1.5;
  }
  inc.invalidate_net(net);
  EXPECT_GT(inc.update(), 0);
}

TEST_F(AsyncTsanTest, ConcurrentSweepsShareOneGraphSafely) {
  const Library lib = build_library();
  const SuiteEntry entry = suite_entry("picorv32a", 1.0 / 32);
  Design design = generate_design(entry.spec, lib);
  place_design(design);
  RoutingOptions ropts;
  ropts.mode = RouteMode::kSteiner;
  const DesignRouting routing = route_design(design, ropts);
  const TimingGraph graph(design);

  // Serial reference from the level engine, which never builds the task
  // DAGs, so the graph's forward_dag()/backward_dag() are still unbuilt
  // when the threads below start.
  set_sta_engine(StaEngine::kLevel);
  set_num_threads(1);
  const StaResult ref = run_sta(graph, routing);
  set_num_threads(8);
  set_sta_engine(StaEngine::kAsync);

  // Three async sweeps race the first-use call_once of both DAGs, then
  // run concurrently over the shared graph, each into its own StaResult.
  std::vector<StaResult> results(3);
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (StaResult& out : results) {
    threads.emplace_back([&graph, &routing, &out] {
      out = run_sta(graph, routing);
    });
  }
  for (std::thread& t : threads) t.join();

  for (const StaResult& r : results) {
    ASSERT_EQ(r.arrival.size(), ref.arrival.size());
    EXPECT_EQ(std::memcmp(r.arrival.data(), ref.arrival.data(),
                          ref.arrival.size() * sizeof(PerCorner)),
              0);
    EXPECT_EQ(std::memcmp(&r.wns_setup, &ref.wns_setup, sizeof(double)), 0)
        << r.wns_setup << " vs " << ref.wns_setup;
    EXPECT_EQ(std::memcmp(&r.tns_setup, &ref.tns_setup, sizeof(double)), 0)
        << r.tns_setup << " vs " << ref.tns_setup;
  }
}

}  // namespace
}  // namespace tg
