#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/obs/trace.hpp"

namespace tg {

namespace {

/// Fixed-size worker pool. The pool owns `size - 1` threads: the thread
/// that enters a parallel region is always the size-th executor, so nested
/// parallel regions and a pool of size 1 need no special casing.
class ThreadPool {
 public:
  explicit ThreadPool(int size) : size_(size) {
    for (int i = 0; i + 1 < size; ++i) {
      workers_.emplace_back([this, i] {
        obs::set_thread_name("tg-worker-" + std::to_string(i + 1));
        worker_loop();
      });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return size_; }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ && drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  const int size_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

int resolve_default_threads() {
  if (const char* env = std::getenv("TG_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;           // guarded by g_pool_mu
std::atomic<int> g_threads{0};                // 0 = not yet resolved

/// The pool, created on first use at the current thread-count setting.
ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool || g_pool->size() != num_threads()) {
    g_pool.reset();  // join old workers before spawning the new set
    g_pool = std::make_unique<ThreadPool>(num_threads());
  }
  return *g_pool;
}

/// Shared state of one parallel_for call. Heap-allocated and owned by
/// every helper task, so a worker that claims no chunk can still touch it
/// safely after the caller returned.
struct ForState {
  std::int64_t begin = 0;
  std::int64_t chunk = 1;  ///< indices per chunk (last chunk may be short)
  std::int64_t end = 0;
  int nchunks = 0;
  parallel_detail::ChunkFn fn;

  std::atomic<int> next{0};
  std::atomic<int> completed{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first failure, guarded by mu

  /// Claims and runs chunks until none remain.
  void run_chunks() {
    int c;
    while ((c = next.fetch_add(1, std::memory_order_relaxed)) < nchunks) {
      const std::int64_t b = begin + static_cast<std::int64_t>(c) * chunk;
      const std::int64_t e = std::min(end, b + chunk);
      try {
        fn(b, e);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == nchunks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

int num_threads() {
  int t = g_threads.load(std::memory_order_acquire);
  if (t == 0) {
    t = resolve_default_threads();
    int expected = 0;
    if (!g_threads.compare_exchange_strong(expected, t,
                                           std::memory_order_acq_rel)) {
      t = expected;
    }
  }
  return t;
}

void set_num_threads(int threads) {
  g_threads.store(threads < 1 ? 1 : threads, std::memory_order_release);
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_pool.reset();  // re-created lazily at the new size
}

int configure_threads(const CliOptions& options) {
  if (options.has("threads")) {
    set_num_threads(static_cast<int>(options.get_int("threads", 1)));
  }
  return num_threads();
}

namespace parallel_detail {

void parallel_for_impl(std::int64_t begin, std::int64_t end,
                       std::int64_t grain, const ChunkFn& fn) {
  const std::int64_t n = end - begin;
  TG_DCHECK(n > grain && grain >= 1);
  ThreadPool& pool = global_pool();

  auto state = std::make_shared<ForState>();
  // Oversplit a little (4 chunks per thread) for load balance; chunks
  // never shrink below the grain.
  const std::int64_t max_chunks =
      std::min<std::int64_t>(n / grain, static_cast<std::int64_t>(pool.size()) * 4);
  state->nchunks = static_cast<int>(std::max<std::int64_t>(1, max_chunks));
  state->begin = begin;
  state->end = end;
  state->chunk = (n + state->nchunks - 1) / state->nchunks;
  // Integer rounding can make the last chunk(s) empty; trim them.
  state->nchunks =
      static_cast<int>((n + state->chunk - 1) / state->chunk);
  state->fn = fn;

  const int helpers =
      std::min(pool.size() - 1, state->nchunks - 1);
  for (int h = 0; h < helpers; ++h) {
    pool.submit([state] { state->run_chunks(); });
  }
  state->run_chunks();

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->completed.load(std::memory_order_acquire) == state->nchunks;
  });
  if (state->error) std::rethrow_exception(state->error);
}

void parallel_invoke_impl(const std::function<void()>* tasks,
                          std::size_t count) {
  if (count == 0) return;
  parallel_for(0, static_cast<std::int64_t>(count), 1,
               [tasks](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i) {
                   tasks[static_cast<std::size_t>(i)]();
                 }
               });
}

}  // namespace parallel_detail

void parallel_invoke(std::initializer_list<std::function<void()>> tasks) {
  parallel_detail::parallel_invoke_impl(tasks.begin(), tasks.size());
}

void parallel_invoke(const std::vector<std::function<void()>>& tasks) {
  parallel_detail::parallel_invoke_impl(tasks.data(), tasks.size());
}

}  // namespace tg
