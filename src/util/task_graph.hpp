#pragma once
/// \file task_graph.hpp
/// Dependency-counter task-graph engine on the shared thread pool
/// (DESIGN.md §11) — the asynchronous alternative to level-synchronized
/// `parallel_for` sweeps. A `TaskDag` holds a DAG as a successor CSR plus
/// per-node fan-in counts; `run_task_dag` executes a task per node with no
/// per-level barriers: every completed node atomically decrements its
/// successors' counters and pushes the newly-ready ones onto a per-worker
/// local deque. Idle workers steal *batches* from the front of a victim's
/// deque, so the per-task scheduling overhead stays well below the ~µs
/// task cost the STA sweeps exhibit.
///
/// Determinism contract: the engine guarantees a node fires only after all
/// of its predecessors completed, and never fires twice. A task that
/// writes only node-owned outputs and reads only predecessor-owned outputs
/// therefore computes bit-identical results regardless of worker count or
/// interleaving — the same contract the levelized sweeps rely on, minus
/// the barriers.
///
/// `run_task_dag_cone` is the incremental flavor: it BFS-discovers the
/// sub-DAG reachable from a seed frontier, counts in-cone fan-in, and runs
/// the worklist over the cone only. Tasks return whether the node's value
/// actually changed; a non-seed node whose in-cone predecessors all
/// reported "unchanged" is skipped (its bookkeeping still runs, so
/// successors unblock) — the classic pruned ECO re-propagation.
///
/// Cancellation: both entry points capture the submitting thread's ambient
/// `CancelToken` (util/cancel.hpp) and poll it before firing each node. A
/// tripped token aborts exactly like a task exception — remaining bodies
/// are skipped, bookkeeping drains so counters stay consistent — and
/// `CancelError` is rethrown after the drain. A request cancelled or past
/// its deadline therefore stops within one task-graph batch. Callers with
/// no ambient token pay one pointer test per node.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace tg {

class CliOptions;

/// A DAG in successor-CSR form with precomputed fan-in counters. Build
/// once per graph and reuse across runs — `run_task_dag` never mutates it.
struct TaskDag {
  int num_nodes = 0;
  std::vector<int> succ_off;  ///< size num_nodes + 1
  std::vector<int> succ;      ///< successor ids, grouped by source
  /// Fan-in per node, counting edge multiplicity (parallel edges both
  /// count and both decrement — the node still fires exactly once, after
  /// every incidence).
  std::vector<int> indegree;
  std::vector<int> roots;  ///< indegree-0 nodes, ascending
  /// One valid topological order (Kahn, roots first). Single-worker full
  /// runs walk this directly — no counters, no scheduling state.
  std::vector<int> topo;

  [[nodiscard]] std::span<const int> successors(int v) const {
    const auto b = static_cast<std::size_t>(succ_off[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(succ_off[static_cast<std::size_t>(v) + 1]);
    return {succ.data() + b, e - b};
  }

  /// Recomputes `indegree`, `roots` and `topo` from the successor CSR
  /// (checks acyclicity). Call after filling num_nodes/succ_off/succ by
  /// hand.
  void finalize();

  /// Builds a DAG from (from, to) edges (any order, duplicates kept).
  [[nodiscard]] static TaskDag from_edges(
      int num_nodes, std::span<const std::pair<int, int>> edges);
};

/// Scheduler statistics of one run (merged over workers).
struct TaskDagStats {
  std::uint64_t tasks_fired = 0;    ///< nodes executed (incl. skipped ones)
  std::uint64_t steal_batches = 0;  ///< successful steal operations
  std::uint64_t stolen_tasks = 0;   ///< tasks moved by those steals
  std::uint64_t max_ready_depth = 0;  ///< deepest per-worker ready deque
  int workers = 0;                  ///< workers that participated
};

/// Runs `task(v)` once for every node of `dag`, each after all its
/// predecessors. Serial (caller thread, topological worklist order) when
/// the pool has one thread; otherwise the caller plus pool workers drain
/// the worklist concurrently (worker count per `task_dag_workers`).
/// Exceptions from tasks abort remaining task bodies and the first one is
/// rethrown after the run drained.
TaskDagStats run_task_dag(const TaskDag& dag,
                          const std::function<void(int)>& task);

/// Result of a cone (frontier-seeded) run.
struct ConeStats {
  long long cone_nodes = 0;  ///< nodes reachable from the seeds (incl.)
  long long evaluated = 0;   ///< tasks whose body actually ran
  TaskDagStats run;
};

/// Runs the worklist over the sub-DAG reachable from `seeds` (duplicates
/// allowed). Seeds always evaluate; a non-seed node evaluates only when at
/// least one in-cone predecessor evaluated *and* returned true (changed).
/// `task(v)` returns whether v's value changed.
ConeStats run_task_dag_cone(const TaskDag& dag, std::span<const int> seeds,
                            const std::function<bool(int)>& task);

/// Folds one run's scheduler stats into the `sta/async/*` metrics (tasks
/// fired, steal traffic, peak ready-queue depth, workers). Shared by every
/// async-engine call site — the STA sweeps, the incremental timer and the
/// GNN delay-propagation stage.
void record_task_dag_metrics(const TaskDagStats& stats);

/// Worker-count override for the engine. By default a run uses
/// `min(num_threads(), hardware cores, tasks)` workers — oversubscribing
/// physical cores only adds timeslice churn. `n >= 1` forces up to n
/// workers regardless of the core count (still bounded by `num_threads()`
/// and the task count) — concurrency tests and TSan builds use this to
/// exercise the steal/publication paths even on small machines. `n = 0`
/// restores the hardware-bounded default. Also settable via the
/// `TG_TASK_DAG_WORKERS` environment variable.
void set_task_dag_workers(int n);
[[nodiscard]] int task_dag_workers();

// ---- engine selection ----------------------------------------------------

/// Which propagation engine the STA sweeps (and the GNN delay-propagation
/// stage) use: barrier-synchronized per-level parallel_for, or the
/// asynchronous worklist above. Resolved once from `TG_STA_ENGINE`
/// (level|async, default level); `--sta-engine` overrides per invocation.
/// Any other value throws a CheckError naming the valid ones.
enum class StaEngine { kLevel, kAsync };

[[nodiscard]] StaEngine sta_engine();
void set_sta_engine(StaEngine engine);
/// Applies `--sta-engine=level|async` when present; returns the active
/// engine.
StaEngine configure_sta_engine(const CliOptions& options);
[[nodiscard]] const char* sta_engine_name(StaEngine engine);

}  // namespace tg
