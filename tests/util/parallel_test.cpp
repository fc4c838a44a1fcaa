#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace tg {
namespace {

/// Per-index work that makes `indices` indices one minimum chunk.
Work chunk_of(std::int64_t indices) {
  return {(kMinChunkWork + indices - 1) / indices, 0};
}

/// Restores the pool size a test changed so later suites see the default.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_num_threads(saved_); }
  int saved_ = num_threads();
};

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(0, 1000, chunk_of(7), [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST_F(ParallelTest, EmptyRangeCallsNothing) {
  set_num_threads(4);
  int calls = 0;
  parallel_for(5, 5, chunk_of(1), [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_F(ParallelTest, SerialFallbackRunsInline) {
  set_num_threads(1);
  const auto caller = std::this_thread::get_id();
  const std::int64_t forked = forked_regions();
  int calls = 0;
  parallel_for(0, 100000, chunk_of(1), [&](std::int64_t b, std::int64_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 100000);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(forked_regions(), forked);
}

/// Below two minimum chunks of work the caller runs the whole range in one
/// call, without forking, whatever the pool size and however the work is
/// split between flops and bytes.
TEST_F(ParallelTest, BelowMinimumWorkRunsWholeRangeOnCaller) {
  set_num_threads(4);
  const auto caller = std::this_thread::get_id();
  const std::int64_t forked = forked_regions();
  struct Case {
    std::int64_t n;
    Work per_index;
  };
  for (const Case c : {Case{1, Work{kMinChunkWork, kMinChunkWork}},
                       Case{15, chunk_of(8)},
                       Case{1000, Work{100, 0}},
                       Case{1000, Work{0, 100}},
                       Case{(2 * kMinChunkWork) / 13 - 1, Work{1, 12}},
                       Case{64, Work{}}}) {
    std::vector<std::pair<std::int64_t, std::int64_t>> calls;
    parallel_for(0, c.n, c.per_index, [&](std::int64_t b, std::int64_t e) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      calls.emplace_back(b, e);
    });
    ASSERT_EQ(calls.size(), 1u) << "n=" << c.n;
    EXPECT_EQ(calls[0], std::make_pair(std::int64_t{0}, c.n));
  }
  EXPECT_EQ(forked_regions(), forked);
}

/// Above the minimum the region forks, and no chunk carries less than
/// kMinChunkWork — the last chunk included.
TEST_F(ParallelTest, AboveMinimumEveryChunkCarriesTheMinimum) {
  for (const int threads : {2, 4, 8}) {
    set_num_threads(threads);
    for (const std::int64_t n : {2, 3, 10, 17, 1000, 100003}) {
      for (const std::int64_t per_chunk : {1, 2, 3, 7}) {
        if (n < 2 * per_chunk) continue;
        SCOPED_TRACE(testing::Message() << "threads " << threads << " n " << n
                                        << " per_chunk " << per_chunk);
        const Work w = chunk_of(per_chunk);
        const std::int64_t forked = forked_regions();
        std::mutex mu;
        std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
        parallel_for(0, n, w, [&](std::int64_t b, std::int64_t e) {
          std::lock_guard<std::mutex> lock(mu);
          chunks.emplace_back(b, e);
        });
        EXPECT_EQ(forked_regions(), forked + 1);
        ASSERT_GE(chunks.size(), 2u);
        std::sort(chunks.begin(), chunks.end());
        std::int64_t next = 0;
        for (const auto& [b, e] : chunks) {
          EXPECT_EQ(b, next);
          EXPECT_GE((e - b) * (w.flops + w.bytes), kMinChunkWork);
          next = e;
        }
        EXPECT_EQ(next, n);
      }
    }
  }
}

TEST_F(ParallelTest, NestedParallelForMakesProgress) {
  set_num_threads(4);
  std::atomic<std::int64_t> total{0};
  parallel_for(0, 16, chunk_of(1), [&](std::int64_t ob, std::int64_t oe) {
    for (std::int64_t o = ob; o < oe; ++o) {
      std::atomic<std::int64_t> inner{0};
      parallel_for(0, 64, chunk_of(4), [&](std::int64_t b, std::int64_t e) {
        inner.fetch_add(e - b);
      });
      total.fetch_add(inner.load());
    }
  });
  EXPECT_EQ(total.load(), 16 * 64);
}

TEST_F(ParallelTest, ParallelInvokeRunsAllTasks) {
  set_num_threads(4);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 9; ++i) tasks.push_back([&ran] { ran.fetch_add(1); });
  const std::int64_t forked = forked_regions();
  parallel_invoke(tasks);
  EXPECT_EQ(ran.load(), 9);
  parallel_invoke({[&ran] { ran.fetch_add(1); }, [&ran] { ran.fetch_add(1); }});
  EXPECT_EQ(ran.load(), 11);
  // Every task counts as a whole chunk's work, so both calls forked.
  EXPECT_EQ(forked_regions(), forked + 2);
}

TEST_F(ParallelTest, ExceptionsPropagateToCaller) {
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    EXPECT_THROW(
        parallel_for(0, 256, chunk_of(1),
                     [](std::int64_t b, std::int64_t e) {
                       for (std::int64_t i = b; i < e; ++i) {
                         TG_CHECK_MSG(i != 200, "boom");
                       }
                     }),
        CheckError);
  }
}

TEST_F(ParallelTest, SetNumThreadsClampsToOne) {
  set_num_threads(-3);
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(8);
  EXPECT_EQ(num_threads(), 8);
}

TEST_F(ParallelTest, DisjointChunkSumMatchesSerial) {
  std::vector<double> values(100000);
  std::iota(values.begin(), values.end(), 0.25);
  std::vector<double> out_serial(values.size()), out_parallel(values.size());
  const auto run = [&](std::vector<double>& out) {
    parallel_for(0, static_cast<std::int64_t>(values.size()), chunk_of(1024),
                 [&](std::int64_t b, std::int64_t e) {
                   for (std::int64_t i = b; i < e; ++i) {
                     out[static_cast<std::size_t>(i)] =
                         values[static_cast<std::size_t>(i)] * 3.0 + 1.0;
                   }
                 });
  };
  set_num_threads(1);
  run(out_serial);
  set_num_threads(8);
  const std::int64_t forked = forked_regions();
  run(out_parallel);
  EXPECT_GT(forked_regions(), forked);
  EXPECT_EQ(out_serial, out_parallel);
}

}  // namespace
}  // namespace tg
