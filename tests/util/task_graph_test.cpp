/// \file task_graph_test.cpp
/// Unit contract of the dependency-counter worklist engine
/// (util/task_graph.hpp): CSR construction, exactly-once execution in
/// dependency order at any thread count, batched stealing, exception
/// propagation, and the cone runner's seed/pruning semantics. Runs inside
/// parallel_test, so the `tsan` label covers it too.

#include "util/task_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

namespace tg {
namespace {

class TaskGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Force the worker count to follow the thread count: the scheduling
    // contracts under test must hold at true multi-worker concurrency
    // even when the machine has fewer cores.
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

TaskDag diamond() {
  // Diamond: 0 -> {1, 2}, {1, 2} -> 3.
  const std::pair<int, int> edges[] = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  return TaskDag::from_edges(4, edges);
}

TEST_F(TaskGraphTest, FromEdgesBuildsCsrIndegreeAndRoots) {
  const TaskDag dag = diamond();
  EXPECT_EQ(dag.num_nodes, 4);
  EXPECT_EQ(dag.indegree, (std::vector<int>{0, 1, 1, 2}));
  EXPECT_EQ(dag.roots, (std::vector<int>{0}));
  EXPECT_EQ(dag.successors(0).size(), 2u);
  EXPECT_EQ(dag.successors(3).size(), 0u);
}

TEST_F(TaskGraphTest, ParallelEdgesCountedWithMultiplicity) {
  const std::pair<int, int> edges[] = {{0, 1}, {0, 1}};
  const TaskDag dag = TaskDag::from_edges(2, edges);
  EXPECT_EQ(dag.indegree[1], 2);

  std::atomic<int> fired{0};
  run_task_dag(dag, [&](int) { fired.fetch_add(1); });
  EXPECT_EQ(fired.load(), 2);  // node 1 still fires exactly once
}

/// Every node runs exactly once, and only after all its predecessors —
/// checked via per-node completion timestamps, at 1 and at 8 threads.
void check_dependency_order(int threads) {
  set_num_threads(threads);
  // A layered DAG with cross-level skips and a fan-in sink.
  std::vector<std::pair<int, int>> edges;
  const int n = 400;
  for (int v = 1; v < n; ++v) {
    edges.emplace_back(v - 1, v);
    if (v >= 7) edges.emplace_back(v - 7, v);  // skip edge
  }
  const TaskDag dag = TaskDag::from_edges(n, edges);

  std::atomic<int> clock{0};
  std::vector<int> done_at(static_cast<std::size_t>(n), -1);
  std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
  const TaskDagStats stats = run_task_dag(dag, [&](int v) {
    runs[static_cast<std::size_t>(v)].fetch_add(1);
    done_at[static_cast<std::size_t>(v)] = clock.fetch_add(1);
  });

  EXPECT_EQ(stats.tasks_fired, static_cast<std::uint64_t>(n));
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(runs[static_cast<std::size_t>(v)].load(), 1) << "node " << v;
  }
  for (const auto& [from, to] : edges) {
    EXPECT_LT(done_at[static_cast<std::size_t>(from)],
              done_at[static_cast<std::size_t>(to)])
        << from << " -> " << to;
  }
}

TEST_F(TaskGraphTest, DependencyOrderSerial) { check_dependency_order(1); }
TEST_F(TaskGraphTest, DependencyOrderParallel) { check_dependency_order(8); }

TEST_F(TaskGraphTest, WideDagUsesMultipleWorkersAndSteals) {
  set_num_threads(8);
  // 8 independent chains hanging off one root: plenty to steal.
  std::vector<std::pair<int, int>> edges;
  const int chains = 8, len = 200;
  for (int c = 0; c < chains; ++c) {
    edges.emplace_back(0, 1 + c * len);
    for (int i = 1; i < len; ++i) {
      edges.emplace_back(c * len + i, c * len + i + 1);
    }
  }
  const TaskDag dag = TaskDag::from_edges(1 + chains * len, edges);
  std::atomic<int> fired{0};
  const TaskDagStats stats = run_task_dag(dag, [&](int) { fired.fetch_add(1); });
  EXPECT_EQ(fired.load(), 1 + chains * len);
  EXPECT_GT(stats.workers, 1);
  EXPECT_GT(stats.max_ready_depth, 0u);
}

TEST_F(TaskGraphTest, EmptyDagIsANoOp) {
  const TaskDag dag;
  const TaskDagStats stats = run_task_dag(dag, [](int) { FAIL(); });
  EXPECT_EQ(stats.tasks_fired, 0u);
}

TEST_F(TaskGraphTest, TaskExceptionIsRethrownAfterDraining) {
  set_num_threads(4);
  std::vector<std::pair<int, int>> edges;
  for (int v = 1; v < 100; ++v) edges.emplace_back(0, v);
  const TaskDag dag = TaskDag::from_edges(100, edges);
  EXPECT_THROW(
      run_task_dag(dag,
                   [&](int v) {
                     if (v == 0) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST_F(TaskGraphTest, ConeRunsOnlyReachableNodes) {
  set_num_threads(4);
  // Chain 0→1→2→3→4 plus a disjoint chain 5→6.
  const std::pair<int, int> edges[] = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}};
  const TaskDag dag = TaskDag::from_edges(7, edges);

  std::set<int> ran;
  std::mutex mu;
  const int seeds[] = {2};
  const ConeStats cone = run_task_dag_cone(dag, seeds, [&](int v) {
    std::lock_guard<std::mutex> lock(mu);
    ran.insert(v);
    return true;  // everything keeps changing
  });
  EXPECT_EQ(cone.cone_nodes, 3);  // {2, 3, 4}
  EXPECT_EQ(cone.evaluated, 3);
  EXPECT_EQ(ran, (std::set<int>{2, 3, 4}));
}

TEST_F(TaskGraphTest, ConePrunesBelowUnchangedNodes) {
  set_num_threads(1);
  const std::pair<int, int> edges[] = {{0, 1}, {1, 2}, {2, 3}};
  const TaskDag dag = TaskDag::from_edges(4, edges);

  std::set<int> ran;
  const int seeds[] = {0};
  const ConeStats cone = run_task_dag_cone(dag, seeds, [&](int v) {
    ran.insert(v);
    return v == 0;  // the seed changes, node 1 absorbs it
  });
  // Seed 0 evaluates and changes → 1 evaluates but reports unchanged →
  // 2 and 3 are skipped (their bookkeeping still runs).
  EXPECT_EQ(cone.cone_nodes, 4);
  EXPECT_EQ(cone.evaluated, 2);
  EXPECT_EQ(ran, (std::set<int>{0, 1}));
}

TEST_F(TaskGraphTest, ConeSeedsAlwaysEvaluate) {
  set_num_threads(1);
  const std::pair<int, int> edges[] = {{0, 1}};
  const TaskDag dag = TaskDag::from_edges(2, edges);
  std::set<int> ran;
  const int seeds[] = {0, 1, 1};  // duplicates allowed
  const ConeStats cone = run_task_dag_cone(dag, seeds, [&](int v) {
    ran.insert(v);
    return false;  // nothing changes — seeds still evaluate
  });
  EXPECT_EQ(cone.evaluated, 2);
  EXPECT_EQ(ran, (std::set<int>{0, 1}));
}

/// Runs started concurrently from several non-pool threads share one
/// pool, so a run's helpers can wait behind other runs' spinning helpers.
/// Eight independent roots deal exactly one task to each helper's deque;
/// every run must still finish (a regression here hangs until the ctest
/// timeout).
TEST_F(TaskGraphTest, ConcurrentRunsFromExternalThreadsAllFinish) {
  set_num_threads(8);
  const TaskDag dag = TaskDag::from_edges(8, {});
  constexpr int kThreads = 8;
  constexpr int kRuns = 100;
  std::atomic<int> fired{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRuns; ++i) {
        run_task_dag(dag, [&](int) {
          fired.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        });
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fired.load(), kThreads * kRuns * dag.num_nodes);
}

TEST_F(TaskGraphTest, EngineSwitchRoundTrips) {
  set_sta_engine(StaEngine::kAsync);
  EXPECT_EQ(sta_engine(), StaEngine::kAsync);
  EXPECT_STREQ(sta_engine_name(StaEngine::kAsync), "async");
  set_sta_engine(StaEngine::kLevel);
  EXPECT_EQ(sta_engine(), StaEngine::kLevel);
  EXPECT_STREQ(sta_engine_name(StaEngine::kLevel), "level");
}

/// An engine name other than level or async (e.g. `shard`) is a loud
/// CheckError naming the valid values, never a silent fallback.
TEST_F(TaskGraphTest, UnknownEngineNameFailsLoudly) {
  set_sta_engine(StaEngine::kAsync);
  for (const std::string value : {"shard", "levle"}) {
    const std::string arg = "--sta-engine=" + value;
    const char* argv[] = {"prog", arg.c_str()};
    try {
      (void)configure_sta_engine(CliOptions(2, argv));
      FAIL() << "expected CheckError for " << arg;
    } catch (const CheckError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("must be level or async, got " + value),
                std::string::npos)
          << msg;
    }
    EXPECT_EQ(sta_engine(), StaEngine::kAsync) << arg;  // left untouched
  }
  const char* argv[] = {"prog", "--sta-engine=level"};
  EXPECT_EQ(configure_sta_engine(CliOptions(2, argv)), StaEngine::kLevel);
}

}  // namespace
}  // namespace tg
