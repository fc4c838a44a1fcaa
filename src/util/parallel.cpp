#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
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

/// One forked region. It lives on the caller's stack: the caller withdraws
/// the helper slots no worker took and waits only for the helpers that did
/// join, so no worker can touch it after `ThreadPool::run` returns.
struct Job {
  parallel_detail::ChunkCall call = nullptr;
  void* ctx = nullptr;
  std::int64_t begin = 0;
  std::int64_t n = 0;
  int nchunks = 0;
  std::atomic<int> next{0};

  int wanted = 0;  ///< helper slots not yet taken (pool mutex)
  int active = 0;  ///< helpers inside run_chunks (pool mutex)
  std::condition_variable idle;  ///< signalled when `active` drops to 0

  std::mutex error_mu;
  std::exception_ptr error;  ///< first failure, guarded by error_mu

  /// Claims and runs chunks until none remain. Chunk c covers
  /// [n*c/nchunks, n*(c+1)/nchunks), so every chunk holds at least
  /// floor(n/nchunks) indices.
  void run_chunks() {
    int c;
    while ((c = next.fetch_add(1, std::memory_order_relaxed)) < nchunks) {
      const std::int64_t b = begin + n * c / nchunks;
      const std::int64_t e = begin + n * (c + 1) / nchunks;
      try {
        call(ctx, b, e);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    }
  }
};

/// Fixed-size worker pool. The pool owns `size - 1` threads: the thread
/// that enters a parallel region is always the size-th executor, so nested
/// parallel regions and a pool of size 1 need no special casing. Open
/// regions sit in one list; an idle worker joins the newest, which under
/// nesting is the innermost one.
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
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return size_; }

  /// Offers `helpers` worker slots on `job`, runs chunks on the calling
  /// thread, then waits for the helpers that joined.
  void run(Job& job, int helpers) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job.wanted = helpers;
      open_.push_back(&job);
    }
    if (helpers + 1 >= size_) {
      work_cv_.notify_all();
    } else {
      for (int h = 0; h < helpers; ++h) work_cv_.notify_one();
    }
    job.run_chunks();
    std::unique_lock<std::mutex> lock(mu_);
    if (job.wanted > 0) std::erase(open_, &job);
    job.idle.wait(lock, [&] { return job.active == 0; });
  }

 private:
  void worker_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [this] { return stop_ || !open_.empty(); });
      if (open_.empty()) return;  // stop_ and nothing left to join
      Job* job = open_.back();
      if (--job->wanted == 0) open_.pop_back();
      ++job->active;
      lock.unlock();
      job->run_chunks();
      lock.lock();
      if (--job->active == 0) job->idle.notify_one();
    }
  }

  const int size_;
  std::vector<std::thread> workers_;
  std::vector<Job*> open_;  ///< regions with helper slots left (mu_)
  std::mutex mu_;
  std::condition_variable work_cv_;
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

std::atomic<std::int64_t> g_forked{0};

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

std::int64_t forked_regions() {
  return g_forked.load(std::memory_order_relaxed);
}

int configure_threads(const CliOptions& options) {
  if (options.has("threads")) {
    set_num_threads(static_cast<int>(options.get_int("threads", 1)));
  }
  return num_threads();
}

namespace parallel_detail {

void fork(std::int64_t begin, std::int64_t end, std::int64_t grain,
          ChunkCall call, void* ctx) {
  const std::int64_t n = end - begin;
  TG_DCHECK(grain >= 1 && n >= 2 * grain);
  ThreadPool& pool = global_pool();
  g_forked.fetch_add(1, std::memory_order_relaxed);

  Job job;
  job.call = call;
  job.ctx = ctx;
  job.begin = begin;
  job.n = n;
  // Oversplit a little (4 chunks per thread) for load balance; no chunk
  // falls below the grain.
  job.nchunks = static_cast<int>(std::min<std::int64_t>(
      n / grain, static_cast<std::int64_t>(pool.size()) * 4));
  pool.run(job, std::min(pool.size() - 1, job.nchunks - 1));
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace parallel_detail

namespace {

void invoke_all(const std::function<void()>* tasks, std::size_t count) {
  const auto n = static_cast<std::int64_t>(count);
  if (num_threads() <= 1 || n < 2) {
    for (std::size_t i = 0; i < count; ++i) tasks[i]();
    return;
  }
  parallel_detail::fork(
      0, n, 1,
      [](void* ctx, std::int64_t b, std::int64_t e) {
        const auto* t = static_cast<const std::function<void()>*>(ctx);
        for (std::int64_t i = b; i < e; ++i) t[i]();
      },
      const_cast<std::function<void()>*>(tasks));
}

}  // namespace

void parallel_invoke(std::initializer_list<std::function<void()>> tasks) {
  invoke_all(tasks.begin(), tasks.size());
}

void parallel_invoke(const std::vector<std::function<void()>>& tasks) {
  invoke_all(tasks.data(), tasks.size());
}

}  // namespace tg
