#include "util/task_graph.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/obs/metrics.hpp"
#include "util/parallel.hpp"

namespace tg {

void TaskDag::finalize() {
  TG_CHECK(static_cast<int>(succ_off.size()) == num_nodes + 1);
  indegree.assign(static_cast<std::size_t>(num_nodes), 0);
  for (int s : succ) {
    TG_DCHECK(s >= 0 && s < num_nodes);
    ++indegree[static_cast<std::size_t>(s)];
  }
  roots.clear();
  for (int v = 0; v < num_nodes; ++v) {
    if (indegree[static_cast<std::size_t>(v)] == 0) roots.push_back(v);
  }
  // Kahn order, reused by every single-worker full run: a serial drain
  // needs no counters at all when the visit order is precomputed.
  topo.clear();
  topo.reserve(static_cast<std::size_t>(num_nodes));
  topo.insert(topo.end(), roots.begin(), roots.end());
  std::vector<int> pending(indegree);
  for (std::size_t head = 0; head < topo.size(); ++head) {
    for (int s : successors(topo[head])) {
      if (--pending[static_cast<std::size_t>(s)] == 0) topo.push_back(s);
    }
  }
  TG_CHECK_MSG(static_cast<int>(topo.size()) == num_nodes,
               "task graph has a cycle: only " << topo.size() << " of "
                                               << num_nodes
                                               << " nodes are orderable");
}

TaskDag TaskDag::from_edges(int num_nodes,
                            std::span<const std::pair<int, int>> edges) {
  TaskDag dag;
  dag.num_nodes = num_nodes;
  dag.succ_off.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const auto& [from, to] : edges) {
    TG_CHECK(from >= 0 && from < num_nodes && to >= 0 && to < num_nodes);
    ++dag.succ_off[static_cast<std::size_t>(from) + 1];
  }
  for (int v = 0; v < num_nodes; ++v) {
    dag.succ_off[static_cast<std::size_t>(v) + 1] +=
        dag.succ_off[static_cast<std::size_t>(v)];
  }
  dag.succ.resize(edges.size());
  std::vector<int> cursor(dag.succ_off.begin(), dag.succ_off.end() - 1);
  for (const auto& [from, to] : edges) {
    dag.succ[static_cast<std::size_t>(cursor[static_cast<std::size_t>(from)]++)] =
        to;
  }
  dag.finalize();
  return dag;
}

namespace {

/// Thieves take at most this many tasks per steal (and never more than
/// half the victim's deque) — large enough to amortize the victim lock,
/// small enough to keep work spread out.
constexpr std::size_t kMaxStealBatch = 32;

/// Shared state of one engine run. Owned via shared_ptr by every helper
/// task: a pool worker that wakes up after the run already drained still
/// touches only this object.
struct EngineState {
  const TaskDag* dag = nullptr;
  /// Runs node v's body; returns whether its value changed (full runs
  /// always report true). Never called for skipped (clean) cone nodes.
  std::function<bool(int)> body;

  // Per-node live counters. `pending` starts at the (in-cone) fan-in;
  // the last decrement makes a node ready. Raw arrays sized num_nodes.
  std::unique_ptr<std::atomic<int>[]> pending;
  /// Cone runs only: 1 when the node must evaluate (seed or a changed
  /// predecessor). Plain-relaxed stores — the pending RMW chain publishes
  /// them to whoever fires the node.
  std::unique_ptr<std::atomic<unsigned char>[]> dirty;
  /// Cone runs only: 1 when the node is inside the reachable cone.
  std::vector<unsigned char> in_cone;
  bool cone_mode = false;

  /// Nodes not yet known-completed. Workers retire completions in local
  /// batches (flushed when their deque drains) so this line is not an
  /// every-task rendezvous — with ~100ns tasks a per-task acq_rel RMW on
  /// one cache line serializes eight workers all by itself.
  std::atomic<long long> remaining{0};
  std::atomic<bool> abort{false};

  /// Ambient cancellation token of the submitting thread, captured at run
  /// entry and polled by every worker before firing a node. A tripped
  /// token aborts exactly like a task exception — remaining task bodies
  /// are skipped, bookkeeping drains — and CancelError is rethrown after
  /// the drain, so a cancelled request stops within one task batch.
  CancelToken cancel;

  /// Records the cancellation as the run's error (first writer wins) and
  /// flips abort, mirroring the task-exception path.
  void abort_cancelled() {
    {
      std::lock_guard<std::mutex> lock(err_mu);
      if (!error) error = std::make_exception_ptr(CancelError(cancel.reason()));
    }
    abort.store(true, std::memory_order_relaxed);
  }

  struct alignas(64) Worker {
    std::mutex mu;
    std::deque<int> ready;  ///< owner pushes/pops back, thieves pop front
    /// Approximate deque size, maintained by whoever holds `mu`. Thieves
    /// probe it with a relaxed load and skip victims below the steal
    /// threshold without touching the mutex — an idle worker sweeping
    /// seven victims must not hammer seven locks per sweep.
    std::atomic<int> approx_size{0};
    /// Set when the owner enters worker_loop. A helper's pool task can sit
    /// queued behind other runs' helpers, so until it starts, the tasks
    /// dealt to its deque are fair game down to the last one.
    std::atomic<bool> started{false};
    std::uint64_t fired = 0;
    std::uint64_t evaluated = 0;
    std::uint64_t steal_batches = 0;
    std::uint64_t stolen_tasks = 0;
    std::uint64_t max_depth = 0;
  };
  std::vector<Worker> workers;

  // Helper-completion handshake (same shape as parallel_for's ForState).
  std::mutex done_mu;
  std::condition_variable done_cv;
  int helpers_done = 0;
  int helpers_expected = 0;

  std::mutex err_mu;
  std::exception_ptr error;

  /// Sum of per-worker evaluated counts, filled in by run_engine after the
  /// helpers-done handshake (cone runs report it as ConeStats::evaluated).
  long long evaluated_total = 0;

  void push_local(int wid, int v) {
    Worker& w = workers[static_cast<std::size_t>(wid)];
    std::lock_guard<std::mutex> lock(w.mu);
    w.ready.push_back(v);
    w.approx_size.store(static_cast<int>(w.ready.size()),
                        std::memory_order_relaxed);
    w.max_depth = std::max(w.max_depth, static_cast<std::uint64_t>(w.ready.size()));
  }

  int pop_local(int wid) {
    Worker& w = workers[static_cast<std::size_t>(wid)];
    if (w.approx_size.load(std::memory_order_relaxed) == 0) return -1;
    std::lock_guard<std::mutex> lock(w.mu);
    if (w.ready.empty()) return -1;
    const int v = w.ready.back();
    w.ready.pop_back();
    w.approx_size.store(static_cast<int>(w.ready.size()),
                        std::memory_order_relaxed);
    return v;
  }

  /// One sweep over the other workers; brings a batch home and returns one
  /// task to run now (or -1). The batch is staged in a local buffer so the
  /// victim's and the thief's mutexes are never held together — two workers
  /// stealing from each other must not form a lock cycle. Running victims
  /// whose occupancy hint is below 2 are skipped without locking: taking a
  /// worker's *only* task just bounces a serial chain between cores (one
  /// cache migration per node), so thieves only go where a surplus exists.
  /// A victim that has not started yet gives up everything it holds:
  /// otherwise, when concurrent runs share the pool, each run's last task
  /// can sit with a helper queued behind another run's spinning helpers,
  /// and the runs wait on each other forever.
  int steal(int wid) {
    Worker& self = workers[static_cast<std::size_t>(wid)];
    const int n = static_cast<int>(workers.size());
    int batch[kMaxStealBatch];
    for (int k = 1; k < n; ++k) {
      const int vid = (wid + k) % n;
      Worker& victim = workers[static_cast<std::size_t>(vid)];
      const bool parked = !victim.started.load(std::memory_order_acquire);
      const int min_avail = parked ? 1 : 2;
      if (victim.approx_size.load(std::memory_order_relaxed) < min_avail) {
        continue;
      }
      std::size_t got = 0;
      {
        std::lock_guard<std::mutex> lock(victim.mu);
        const std::size_t avail = victim.ready.size();
        if (avail < static_cast<std::size_t>(min_avail)) continue;
        const std::size_t take =
            std::min(kMaxStealBatch, parked ? avail : avail / 2);
        for (; got < take; ++got) {
          batch[got] = victim.ready.front();
          victim.ready.pop_front();
        }
        victim.approx_size.store(static_cast<int>(victim.ready.size()),
                                 std::memory_order_relaxed);
      }
      const int run_now = batch[0];
      if (got > 1) {
        std::lock_guard<std::mutex> self_lock(self.mu);
        for (std::size_t i = 1; i < got; ++i) self.ready.push_back(batch[i]);
        self.approx_size.store(static_cast<int>(self.ready.size()),
                               std::memory_order_relaxed);
        self.max_depth = std::max(
            self.max_depth, static_cast<std::uint64_t>(self.ready.size()));
      }
      self.steal_batches += 1;
      self.stolen_tasks += got;
      return run_now;
    }
    return -1;
  }

  /// Runs node v and returns the first successor it made ready (or -1);
  /// further ready successors go to the local deque. Continuation chaining:
  /// a serial chain advances with zero deque traffic — the caller loops on
  /// the return value instead of round-tripping through the mutex.
  int run_node(int wid, int v) {
    Worker& self = workers[static_cast<std::size_t>(wid)];
    self.fired += 1;
    bool changed = true;
    if (!abort.load(std::memory_order_relaxed) && cancel.cancelled()) {
      abort_cancelled();
    }
    if (!abort.load(std::memory_order_relaxed)) {
      const bool evaluate =
          !cone_mode || dirty[static_cast<std::size_t>(v)].load(
                            std::memory_order_relaxed) != 0;
      if (evaluate) {
        try {
          changed = body(v);
          self.evaluated += 1;
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(err_mu);
            if (!error) error = std::current_exception();
          }
          abort.store(true, std::memory_order_relaxed);
        }
      } else {
        changed = false;
      }
    }
    int next = -1;
    for (int s : dag->successors(v)) {
      if (cone_mode) {
        if (!in_cone[static_cast<std::size_t>(s)]) continue;
        if (changed) {
          dirty[static_cast<std::size_t>(s)].store(1,
                                                   std::memory_order_relaxed);
        }
      }
      // The RMW chain on `pending[s]` is the publication edge: the worker
      // that fires s synchronized with every decrementer, so it sees all
      // predecessor outputs (and dirty marks) without extra fences.
      if (pending[static_cast<std::size_t>(s)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        if (next < 0) {
          next = s;
        } else {
          push_local(wid, s);
        }
      }
    }
    return next;
  }

  /// Single-worker drain: a plain LIFO stack, no locks, and unsynchronized
  /// load/store counter updates instead of RMWs — nobody else touches the
  /// arrays. Bit-identity is unaffected (task bodies are order-independent
  /// by contract); what this buys is level-engine-grade per-task overhead
  /// whenever the run is serial anyway (one core, or num_threads() == 1).
  void run_serial(std::span<const int> ready) {
    Worker& self = workers[0];
    std::vector<int> stack(ready.begin(), ready.end());
    self.max_depth = static_cast<std::uint64_t>(stack.size());
    while (!stack.empty()) {
      int v = stack.back();
      stack.pop_back();
      while (v >= 0) {
        self.fired += 1;
        bool changed = true;
        if (!abort.load(std::memory_order_relaxed) && cancel.cancelled()) {
          if (!error) error = std::make_exception_ptr(CancelError(cancel.reason()));
          abort.store(true, std::memory_order_relaxed);
        }
        if (!abort.load(std::memory_order_relaxed)) {
          const bool evaluate =
              !cone_mode || dirty[static_cast<std::size_t>(v)].load(
                                std::memory_order_relaxed) != 0;
          if (evaluate) {
            try {
              changed = body(v);
              self.evaluated += 1;
            } catch (...) {
              if (!error) error = std::current_exception();
              abort.store(true, std::memory_order_relaxed);
            }
          } else {
            changed = false;
          }
        }
        int next = -1;
        for (int s : dag->successors(v)) {
          if (cone_mode) {
            if (!in_cone[static_cast<std::size_t>(s)]) continue;
            if (changed) {
              dirty[static_cast<std::size_t>(s)].store(
                  1, std::memory_order_relaxed);
            }
          }
          auto& cnt = pending[static_cast<std::size_t>(s)];
          const int left = cnt.load(std::memory_order_relaxed) - 1;
          cnt.store(left, std::memory_order_relaxed);
          if (left == 0) {
            if (next < 0) {
              next = s;
            } else {
              stack.push_back(s);
              self.max_depth = std::max(
                  self.max_depth, static_cast<std::uint64_t>(stack.size()));
            }
          }
        }
        v = next;
      }
    }
  }

  void worker_loop(int wid) {
    workers[static_cast<std::size_t>(wid)].started.store(
        true, std::memory_order_release);
    long long retired = 0;  // completions not yet subtracted from remaining
    int idle_sweeps = 0;
    for (;;) {
      int v = pop_local(wid);
      if (v < 0) {
        if (retired > 0) {
          remaining.fetch_sub(retired, std::memory_order_acq_rel);
          retired = 0;
        }
        v = steal(wid);
      }
      if (v < 0) {
        if (remaining.load(std::memory_order_acquire) <= 0) return;
        // Brief spin, then doze: a persistently-empty worker must stop
        // burning cycles (and, when threads exceed cores, timeslices that
        // belong to the workers that DO hold work).
        if (++idle_sweeps < 16) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        continue;
      }
      idle_sweeps = 0;
      while (v >= 0) {
        v = run_node(wid, v);
        ++retired;
      }
    }
  }
};

/// Worker count for a run of `total` tasks: the thread-count setting
/// bounded by the physical core count — running more DAG workers than
/// cores only adds timeslice churn (idle workers preempting the ones that
/// hold work). Tests force a higher count via set_task_dag_workers to
/// exercise the steal paths on small machines.
int engine_worker_count(long long total) {
  const int forced = task_dag_workers();
  const unsigned hw = std::thread::hardware_concurrency();
  const int cap = forced > 0
                      ? forced
                      : (hw == 0 ? num_threads() : static_cast<int>(hw));
  return std::max(1, std::min({num_threads(), cap, static_cast<int>(total)}));
}

TaskDagStats run_engine(std::shared_ptr<EngineState> state,
                        std::span<const int> ready, long long total) {
  TaskDagStats stats;
  if (total <= 0) return stats;
  state->remaining.store(total, std::memory_order_release);

  const int nworkers = engine_worker_count(total);
  state->workers = std::vector<EngineState::Worker>(
      static_cast<std::size_t>(nworkers));
  stats.workers = nworkers;

  if (nworkers == 1) {
    state->run_serial(ready);
  } else {
    // Round-robin the initially-ready nodes so every worker starts hot.
    for (std::size_t i = 0; i < ready.size(); ++i) {
      EngineState::Worker& w =
          state->workers[i % static_cast<std::size_t>(nworkers)];
      w.ready.push_back(ready[i]);
      w.approx_size.store(static_cast<int>(w.ready.size()),
                          std::memory_order_relaxed);
      w.max_depth = std::max(w.max_depth,
                             static_cast<std::uint64_t>(w.ready.size()));
    }

    state->helpers_expected = nworkers - 1;
    for (int h = 1; h < nworkers; ++h) {
      parallel_detail::pool_submit([state, h] {
        state->worker_loop(h);
        std::lock_guard<std::mutex> lock(state->done_mu);
        ++state->helpers_done;
        state->done_cv.notify_all();
      });
    }
    state->worker_loop(0);
    {
      std::unique_lock<std::mutex> lock(state->done_mu);
      state->done_cv.wait(lock, [&] {
        return state->helpers_done == state->helpers_expected;
      });
    }
  }

  for (const EngineState::Worker& w : state->workers) {
    stats.tasks_fired += w.fired;
    stats.steal_batches += w.steal_batches;
    stats.stolen_tasks += w.stolen_tasks;
    stats.max_ready_depth = std::max(stats.max_ready_depth, w.max_depth);
    state->evaluated_total += static_cast<long long>(w.evaluated);
  }
  // Take the error out of the shared state: a helper's pool task may drop
  // the last state reference later, and the exception must not be freed
  // from that thread while the caller is still handling it.
  if (state->error) {
    std::rethrow_exception(std::exchange(state->error, nullptr));
  }
  return stats;
}

}  // namespace

TaskDagStats run_task_dag(const TaskDag& dag,
                          const std::function<void(int)>& task) {
  TaskDagStats stats;
  if (dag.num_nodes <= 0) return stats;
  // A token that tripped before the run starts must stop it before any
  // task body fires (not after the first batch is staged).
  current_cancel_token().throw_if_cancelled();
  if (engine_worker_count(dag.num_nodes) == 1) {
    // Serial full run: walk the precomputed topological order directly —
    // no dependency counters, no deques, no shared state to set up. This
    // keeps the async engine's serial walk at (or below) the levelized
    // serial sweep's per-node cost, which is what the engine degrades to
    // on a single core.
    stats.workers = 1;
    const CancelToken cancel = current_cancel_token();
    std::exception_ptr error;
    for (int v : dag.topo) {
      stats.tasks_fired += 1;
      if (!error && cancel.cancelled()) {
        error = std::make_exception_ptr(CancelError(cancel.reason()));
      }
      if (error) continue;  // drain semantics: bodies stop, count doesn't
      try {
        task(v);
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return stats;
  }

  auto state = std::make_shared<EngineState>();
  state->dag = &dag;
  state->cancel = current_cancel_token();
  state->body = [&task](int v) {
    task(v);
    return true;
  };
  const auto n = static_cast<std::size_t>(dag.num_nodes);
  state->pending = std::make_unique<std::atomic<int>[]>(n);
  for (std::size_t v = 0; v < n; ++v) {
    state->pending[v].store(dag.indegree[v], std::memory_order_relaxed);
  }
  return run_engine(std::move(state), dag.roots, dag.num_nodes);
}

ConeStats run_task_dag_cone(const TaskDag& dag, std::span<const int> seeds,
                            const std::function<bool(int)>& task) {
  ConeStats out;
  if (seeds.empty()) return out;
  // Pre-cancelled callers must not pay for the cone BFS (or fire a single
  // node): check at entry, before any work is staged.
  current_cancel_token().throw_if_cancelled();
  const auto n = static_cast<std::size_t>(dag.num_nodes);

  auto state = std::make_shared<EngineState>();
  state->dag = &dag;
  state->cancel = current_cancel_token();
  state->body = task;
  state->cone_mode = true;
  state->in_cone.assign(n, 0);
  state->dirty = std::make_unique<std::atomic<unsigned char>[]>(n);
  state->pending = std::make_unique<std::atomic<int>[]>(n);
  // Zero-init only what the BFS touches lazily is not possible with raw
  // atomics, so clear both arrays up front (O(n), same as the serial
  // walker's queued bitmap).
  for (std::size_t v = 0; v < n; ++v) {
    state->dirty[v].store(0, std::memory_order_relaxed);
    state->pending[v].store(0, std::memory_order_relaxed);
  }

  // BFS from the seeds: membership plus in-cone fan-in counts. Every edge
  // out of a cone node is traversed exactly once, so pending[s] ends at
  // the number of in-cone predecessor incidences of s.
  std::vector<int> cone;
  for (int s : seeds) {
    TG_CHECK(s >= 0 && s < dag.num_nodes);
    if (state->in_cone[static_cast<std::size_t>(s)]) continue;
    state->in_cone[static_cast<std::size_t>(s)] = 1;
    state->dirty[static_cast<std::size_t>(s)].store(
        1, std::memory_order_relaxed);
    cone.push_back(s);
  }
  for (std::size_t head = 0; head < cone.size(); ++head) {
    for (int s : dag.successors(cone[head])) {
      state->pending[static_cast<std::size_t>(s)].fetch_add(
          1, std::memory_order_relaxed);
      if (!state->in_cone[static_cast<std::size_t>(s)]) {
        state->in_cone[static_cast<std::size_t>(s)] = 1;
        cone.push_back(s);
      }
    }
  }
  out.cone_nodes = static_cast<long long>(cone.size());

  std::vector<int> ready;
  for (int v : cone) {
    if (state->pending[static_cast<std::size_t>(v)].load(
            std::memory_order_relaxed) == 0) {
      ready.push_back(v);
    }
  }

  out.run = run_engine(state, ready, static_cast<long long>(cone.size()));
  out.evaluated = state->evaluated_total;
  return out;
}

void record_task_dag_metrics(const TaskDagStats& stats) {
  TG_METRIC_COUNT("sta/async/runs", 1);
  TG_METRIC_COUNT("sta/async/tasks", stats.tasks_fired);
  TG_METRIC_COUNT("sta/async/steal_batches", stats.steal_batches);
  TG_METRIC_COUNT("sta/async/stolen_tasks", stats.stolen_tasks);
  static obs::Gauge& depth = obs::gauge("sta/async/max_ready_depth");
  depth.set_max(static_cast<double>(stats.max_ready_depth));
  static obs::Gauge& workers = obs::gauge("sta/async/workers");
  workers.set_max(static_cast<double>(stats.workers));
}

// ---- engine selection ----------------------------------------------------

namespace {

std::atomic<int> g_engine{-1};  // -1 unresolved, else StaEngine
// -1 unresolved, 0 hardware-bounded default, >0 forced worker cap.
std::atomic<int> g_dag_workers{-1};

StaEngine resolve_engine_env() {
  if (const char* env = std::getenv("TG_STA_ENGINE")) {
    const std::string v(env);
    if (v == "async") return StaEngine::kAsync;
    TG_CHECK_MSG(v == "level" || v.empty(),
                 "TG_STA_ENGINE must be level or async, got " << v);
  }
  return StaEngine::kLevel;
}

}  // namespace

int task_dag_workers() {
  int n = g_dag_workers.load(std::memory_order_acquire);
  if (n < 0) {
    n = 0;
    if (const char* env = std::getenv("TG_TASK_DAG_WORKERS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v >= 1) n = static_cast<int>(v);
    }
    int expected = -1;
    if (!g_dag_workers.compare_exchange_strong(expected, n,
                                               std::memory_order_acq_rel)) {
      n = expected;
    }
  }
  return n;
}

void set_task_dag_workers(int n) {
  g_dag_workers.store(n < 0 ? 0 : n, std::memory_order_release);
}

StaEngine sta_engine() {
  int e = g_engine.load(std::memory_order_acquire);
  if (e < 0) {
    e = static_cast<int>(resolve_engine_env());
    int expected = -1;
    if (!g_engine.compare_exchange_strong(expected, e,
                                          std::memory_order_acq_rel)) {
      e = expected;
    }
  }
  return static_cast<StaEngine>(e);
}

void set_sta_engine(StaEngine engine) {
  g_engine.store(static_cast<int>(engine), std::memory_order_release);
}

StaEngine configure_sta_engine(const CliOptions& options) {
  if (options.has("sta-engine")) {
    const std::string v = options.get("sta-engine", "level");
    TG_CHECK_MSG(v == "level" || v == "async",
                 "--sta-engine must be level or async, got " << v);
    set_sta_engine(v == "async" ? StaEngine::kAsync : StaEngine::kLevel);
  }
  return sta_engine();
}

const char* sta_engine_name(StaEngine engine) {
  return engine == StaEngine::kAsync ? "async" : "level";
}

}  // namespace tg
