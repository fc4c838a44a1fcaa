#pragma once
/// \file parallel.hpp
/// The repository's shared concurrency substrate: one lazily-initialized
/// global thread pool (sized from `TG_THREADS` / `--threads`, default
/// `hardware_concurrency`) behind two deterministic primitives:
///
///   - `parallel_for(begin, end, grain, fn)` — static chunking of an index
///     range; `fn(chunk_begin, chunk_end)` runs on pool workers plus the
///     calling thread. Chunks must write disjoint outputs; the per-index
///     iteration order *inside* a chunk is the serial order, so any kernel
///     whose chunks own disjoint outputs is bit-identical to its serial run.
///   - `parallel_invoke(tasks)` — runs independent thunks concurrently.
///
/// With `threads <= 1` (or a range below the grain) both primitives
/// degenerate to plain inline loops — the serial fallback the determinism
/// tests diff against. Nested calls are safe: the caller always claims
/// chunks itself, so progress never depends on a free worker.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <vector>

namespace tg {

class CliOptions;

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

namespace parallel_detail {

using ChunkFn = std::function<void(std::int64_t, std::int64_t)>;

/// Runs `fn(chunk_begin, chunk_end)` over static chunks of [begin, end).
void parallel_for_impl(std::int64_t begin, std::int64_t end,
                       std::int64_t grain, const ChunkFn& fn);

void parallel_invoke_impl(const std::function<void()>* tasks,
                          std::size_t count);

}  // namespace parallel_detail

/// Splits [begin, end) into chunks of at least `grain` indices and runs
/// `fn(chunk_begin, chunk_end)` concurrently. Serial (single inline call
/// covering the whole range) when the pool has one thread or the range is
/// no larger than the grain.
template <typename Fn>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  Fn&& fn) {
  if (end <= begin) return;
  if (num_threads() <= 1 || end - begin <= grain) {
    fn(begin, end);
    return;
  }
  parallel_detail::parallel_for_impl(begin, end, grain,
                                     parallel_detail::ChunkFn(fn));
}

/// Runs the given independent tasks, concurrently when the pool has more
/// than one thread; always returns after every task completed.
void parallel_invoke(std::initializer_list<std::function<void()>> tasks);
void parallel_invoke(const std::vector<std::function<void()>>& tasks);

}  // namespace tg
