/// \file task_graph_cancel_test.cpp
/// Cancellation contract of the compute engines (DESIGN.md §12): the
/// task-graph engine and the levelized/incremental STA sweeps capture the
/// submitting thread's ambient CancelToken and stop within one task batch
/// of it tripping, surfacing CancelError through the normal
/// abort-and-drain path. Runs inside parallel_test, so the `tsan` label
/// covers the cancel-from-another-thread interleavings too.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "gen/suite.hpp"
#include "liberty/library_builder.hpp"
#include "place/placer.hpp"
#include "route/steiner.hpp"
#include "sta/incremental.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"
#include "util/task_graph.hpp"

namespace tg {
namespace {

TaskDag chain(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int v = 1; v < n; ++v) edges.emplace_back(v - 1, v);
  return TaskDag::from_edges(n, edges);
}

class TaskGraphCancelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    set_num_threads(saved_threads_);
    set_task_dag_workers(saved_workers_);
  }
  int saved_threads_ = num_threads();
  int saved_workers_ = task_dag_workers();
};

TEST_F(TaskGraphCancelTest, PreCancelledTokenStopsBeforeAnyWork) {
  CancelSource source;
  source.cancel();
  const ScopedCancel ambient(source.token());
  std::atomic<int> fired{0};
  for (int threads : {1, 8}) {
    set_num_threads(threads);
    set_task_dag_workers(threads);
    EXPECT_THROW(run_task_dag(chain(64), [&](int) { fired.fetch_add(1); }),
                 CancelError);
  }
  EXPECT_EQ(fired.load(), 0);
}

TEST_F(TaskGraphCancelTest, MidRunCancelStopsWithinOneBatch) {
  for (int threads : {1, 8}) {
    set_num_threads(threads);
    set_task_dag_workers(threads);
    CancelSource source;
    const ScopedCancel ambient(source.token());
    std::atomic<int> fired{0};
    const int n = 4096;
    try {
      run_task_dag(chain(n), [&](int node) {
        if (node == 10) source.cancel();  // trip mid-run, from a task body
        fired.fetch_add(1);
      });
      FAIL() << "expected CancelError at " << threads << " threads";
    } catch (const CancelError& e) {
      EXPECT_EQ(e.reason(), CancelReason::kCancelled);
    }
    // Stops at the next node boundary: nodes already in flight finish
    // (one batch), the rest never fire.
    EXPECT_GE(fired.load(), 11);
    EXPECT_LT(fired.load(), n / 2) << "cancellation ignored half the DAG";
    fired.store(0);
  }
}

/// Regression: a token that tripped *before* the cone run starts must stop
/// it at entry — the engine used to pay the cone BFS and stage the first
/// batch before noticing (the full-run entry point already checked).
TEST_F(TaskGraphCancelTest, PreCancelledTokenStopsConeBeforeAnyWork) {
  CancelSource source;
  source.cancel();
  const ScopedCancel ambient(source.token());
  std::atomic<int> fired{0};
  const TaskDag dag = chain(64);
  const std::vector<int> seeds{0};
  for (int threads : {1, 8}) {
    set_num_threads(threads);
    set_task_dag_workers(threads);
    EXPECT_THROW(run_task_dag_cone(dag, seeds,
                                   [&](int) {
                                     fired.fetch_add(1);
                                     return true;
                                   }),
                 CancelError);
  }
  EXPECT_EQ(fired.load(), 0);
}

/// Cancel while workers are actively stealing: a wide fan-out keeps every
/// worker's deque busy, a task body trips the token mid-run, and the
/// abort-and-drain path must stop the cone without firing the bulk of it.
/// The token trips in whichever fan-out task fires first: an owner pops
/// its deque LIFO, so a fixed id (say node 1) can fire last unless a thief
/// steals it early, and the cone would then be nearly done before the
/// trip.
TEST_F(TaskGraphCancelTest, ConeCancelDuringStealStopsWithinOneBatch) {
  const int width = 4096;
  std::vector<std::pair<int, int>> edges;
  edges.reserve(static_cast<std::size_t>(width));
  for (int v = 1; v <= width; ++v) edges.emplace_back(0, v);
  const TaskDag dag = TaskDag::from_edges(width + 1, edges);
  const std::vector<int> seeds{0};

  set_num_threads(8);
  set_task_dag_workers(8);
  CancelSource source;
  const ScopedCancel ambient(source.token());
  std::atomic<int> fired{0};
  try {
    run_task_dag_cone(dag, seeds, [&](int node) {
      if (node != 0) source.cancel();  // first fan-out task trips it
      fired.fetch_add(1);
      return true;
    });
    FAIL() << "expected CancelError";
  } catch (const CancelError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kCancelled);
  }
  EXPECT_GE(fired.load(), 1);
  EXPECT_LT(fired.load(), width / 2) << "cancellation ignored the fan-out";
}

TEST_F(TaskGraphCancelTest, DeadlineSurfacesAsDeadlineReason) {
  set_num_threads(1);
  const CancelSource source =
      CancelSource::with_budget(std::chrono::nanoseconds(1));
  const ScopedCancel ambient(source.token());
  try {
    run_task_dag(chain(8), [](int) {});
    FAIL() << "expected CancelError";
  } catch (const CancelError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
}

TEST_F(TaskGraphCancelTest, NoTokenMeansNoOverheadPathStillRuns) {
  std::atomic<int> fired{0};
  run_task_dag(chain(32), [&](int) { fired.fetch_add(1); });
  EXPECT_EQ(fired.load(), 32);
}

/// The STA sweeps poll the ambient token at level boundaries: a full
/// timing run under an expired budget must stop with CancelError instead
/// of running to completion.
TEST_F(TaskGraphCancelTest, StaRunStopsOnExpiredDeadline) {
  const Library library = build_library();
  const SuiteEntry entry = suite_entry("spm", 0.03125);
  Design design = generate_design(entry.spec, library);
  place_design(design);
  RoutingOptions route_opts;
  route_opts.mode = RouteMode::kSteiner;
  const DesignRouting routing = route_design(design, route_opts);
  const TimingGraph graph(design);

  {
    const CancelSource source =
        CancelSource::with_budget(std::chrono::nanoseconds(1));
    const ScopedCancel ambient(source.token());
    EXPECT_THROW((void)run_sta(graph, routing), CancelError);
  }
  // And cleanly recovers once the token is gone.
  const StaResult sta = run_sta(graph, routing);
  EXPECT_FALSE(sta.arrival.empty());
}

/// Cancelling from another thread while the incremental timer re-times a
/// cone: the update aborts with CancelError and a subsequent full run
/// heals the timer (the serving plane's timing_dirty protocol).
TEST_F(TaskGraphCancelTest, IncrementalUpdateSurvivesCancel) {
  const Library library = build_library();
  const SuiteEntry entry = suite_entry("spm", 0.03125);
  Design design = generate_design(entry.spec, library);
  place_design(design);
  RoutingOptions route_opts;
  route_opts.mode = RouteMode::kSteiner;
  DesignRouting routing = route_design(design, route_opts);
  const TimingGraph graph(design);
  IncrementalTimer timer(graph, &routing);
  const double baseline_wns = timer.result().wns_setup;

  // Invalidate something, then update under an already-expired budget.
  NetId victim = kInvalidId;
  for (NetId n = 0; n < design.num_nets(); ++n) {
    if (!design.net(n).is_clock) { victim = n; break; }
  }
  ASSERT_NE(victim, kInvalidId);
  timer.invalidate_net(victim);
  {
    const CancelSource source =
        CancelSource::with_budget(std::chrono::nanoseconds(1));
    const ScopedCancel ambient(source.token());
    EXPECT_THROW(timer.update(), CancelError);
  }
  // Heal with a full run; nothing actually changed, so the answer must be
  // the baseline again.
  timer.run_full();
  EXPECT_DOUBLE_EQ(timer.result().wns_setup, baseline_wns);
}

}  // namespace
}  // namespace tg
