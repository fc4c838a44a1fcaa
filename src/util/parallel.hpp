#pragma once
/// \file parallel.hpp
/// The repository's shared concurrency substrate: one lazily-initialized
/// global thread pool (sized from `TG_THREADS` / `--threads`, default
/// `hardware_concurrency`) behind two deterministic primitives:
///
///   - `parallel_for(begin, end, per_index, fn)` — static chunking of an
///     index range; `fn(chunk_begin, chunk_end)` runs on pool workers plus
///     the calling thread. Chunks must write disjoint outputs; the
///     per-index iteration order *inside* a chunk is the serial order, so
///     any kernel whose chunks own disjoint outputs is bit-identical to its
///     serial run.
///   - `parallel_invoke(tasks)` — runs independent thunks concurrently.
///
/// One cost model decides when a region forks. Each call site states the
/// `Work` of one index (flops plus bytes touched); a region forks only when
/// it splits into at least two chunks of `kMinChunkWork` each, and no chunk
/// ever carries less. Anything smaller — and everything at `threads <= 1` —
/// is one plain inline call on the caller's thread: no allocation, no
/// type erasure, no barrier. Nested calls are safe: the caller always
/// claims chunks itself, so progress never depends on a free worker.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <type_traits>
#include <vector>

namespace tg {

class CliOptions;

/// What one index of a parallel region costs. Both terms count at par:
/// the kernels here are mostly bound by memory traffic or by short SIMD
/// loops, and a byte moved costs about what a flop does.
struct Work {
  std::int64_t flops = 0;  ///< arithmetic operations
  std::int64_t bytes = 0;  ///< bytes read plus bytes written
};

/// The least work (flops + bytes) one chunk of a forked region carries.
/// A fork pays only when it saves more than it takes to get every worker
/// going. `BM_ParallelForDispatch/1` (bench/micro_nn_ops.cpp) times that
/// on a pool whose workers went back to sleep between regions, as they do
/// between the large ops of a training step: 90-140 µs at 4 threads on a
/// shared 4-core x86 VM, against ~1.4 µs for the caller's own share of a
/// fork (`/0`). The nn kernels run ~30 work units per ns there, so a chunk
/// of 2^22 units takes ~140 µs, at least one such wake-up.
inline constexpr std::int64_t kMinChunkWork = std::int64_t{1} << 22;

/// The fewest indices of `per_index` work that reach `kMinChunkWork`.
[[nodiscard]] constexpr std::int64_t min_chunk_indices(Work per_index) {
  const std::int64_t w = per_index.flops + per_index.bytes;
  return w <= 0 ? kMinChunkWork : (kMinChunkWork + w - 1) / w;
}

/// Number of worker threads the pool will use (>= 1). Before the first
/// `set_num_threads` call this is resolved from the `TG_THREADS`
/// environment variable, falling back to `hardware_concurrency`.
[[nodiscard]] int num_threads();

/// Resizes the global pool (clamped to >= 1). Safe to call repeatedly —
/// benches use it to sweep thread counts; `1` restores pure serial
/// execution. Must not be called from inside a parallel region.
void set_num_threads(int threads);

/// Applies `--threads=N` from the command line (when present) and returns
/// the resulting thread count. Shared by benches and tools.
int configure_threads(const CliOptions& options);

/// Regions that really forked (split into chunks handed to the pool) since
/// the process started. Determinism tests read it around a multi-thread
/// run to prove that run was not serial.
[[nodiscard]] std::int64_t forked_regions();

namespace parallel_detail {

/// `fn(ctx, chunk_begin, chunk_end)`: a chunk body without std::function.
using ChunkCall = void (*)(void* ctx, std::int64_t, std::int64_t);

/// Runs `call(ctx, b, e)` over chunks of [begin, end), none shorter than
/// `grain` indices.
void fork(std::int64_t begin, std::int64_t end, std::int64_t grain,
          ChunkCall call, void* ctx);

}  // namespace parallel_detail

/// Splits [begin, end) into chunks of at least `min_chunk_indices(per_index)`
/// indices and runs `fn(chunk_begin, chunk_end)` concurrently. A single
/// inline call covering the whole range when the pool has one thread or
/// the range holds less than two chunks' worth of work.
template <typename Fn>
void parallel_for(std::int64_t begin, std::int64_t end, Work per_index,
                  Fn&& fn) {
  if (end <= begin) return;
  if (num_threads() <= 1) {
    fn(begin, end);
    return;
  }
  const std::int64_t grain = min_chunk_indices(per_index);
  if (end - begin < 2 * grain) {
    fn(begin, end);
    return;
  }
  using F = std::remove_reference_t<Fn>;
  parallel_detail::fork(
      begin, end, grain,
      [](void* ctx, std::int64_t b, std::int64_t e) {
        (*static_cast<F*>(ctx))(b, e);
      },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

/// Runs the given independent tasks, concurrently when the pool has more
/// than one thread; always returns after every task completed. Each task
/// counts as at least one chunk's work, so two tasks already fork.
void parallel_invoke(std::initializer_list<std::function<void()>> tasks);
void parallel_invoke(const std::vector<std::function<void()>>& tasks);

}  // namespace tg
