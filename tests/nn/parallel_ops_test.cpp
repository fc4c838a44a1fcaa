/// \file parallel_ops_test.cpp
/// Determinism contract of the parallel tensor kernels: forward values AND
/// gradients of the training-dominant ops (matmul, segment_sum) must be
/// bit-identical between 1-thread and multi-thread runs. Also pins down the
/// ensure_grad() accumulation semantics the hoist in Tensor::backward()
/// relies on. Labeled `tsan` for TG_SANITIZE=thread builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "nn/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tg::nn {
namespace {

Tensor randn(std::int64_t r, std::int64_t c, Rng& rng, bool grad = false) {
  std::vector<float> v(static_cast<std::size_t>(r * c));
  for (float& x : v) x = static_cast<float>(rng.normal());
  return Tensor::from_vector(std::move(v), r, c, grad);
}

std::vector<float> copy_span(std::span<const float> s) {
  return std::vector<float>(s.begin(), s.end());
}

void expect_bits_equal(const std::vector<float>& a, const std::vector<float>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_FALSE(a.empty()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << " is not bit-identical across thread counts";
}

class ParallelOpsTest : public ::testing::Test {
 protected:
  void TearDown() override { set_num_threads(saved_); }
  int saved_ = num_threads();
};

/// Runs matmul forward + both backward products and returns
/// {out, dA, dB} flattened. Sized so each of the three products carries
/// several minimum chunks of work, so the 8-thread run really splits rows
/// of the output/dA and rows of dB (the test checks it forked).
struct MatmulRun {
  std::vector<float> out, da, db;
};
MatmulRun run_matmul(int threads) {
  set_num_threads(threads);
  Rng rng(42);
  Tensor a = randn(2048, 96, rng, /*grad=*/true);
  Tensor b = randn(96, 64, rng, /*grad=*/true);
  Tensor c = matmul(a, b);
  sum_all(c).backward();
  return {copy_span(c.data()), copy_span(a.grad()), copy_span(b.grad())};
}

TEST_F(ParallelOpsTest, MatmulForwardAndGradBitIdentical) {
  const MatmulRun serial = run_matmul(1);
  const std::int64_t forked = forked_regions();
  const MatmulRun parallel = run_matmul(8);
  EXPECT_GE(forked_regions() - forked, 3) << "forward, dA and dB each fork";
  expect_bits_equal(serial.out, parallel.out, "matmul forward");
  expect_bits_equal(serial.da, parallel.da, "matmul dA");
  expect_bits_equal(serial.db, parallel.db, "matmul dB");
}

/// Training-shaped narrow products (the hidden-16 MLP layers): ~100k rows,
/// k and m tiny, so the forward and dA split into row blocks and, for
/// k >= 16, dB into chunks of two or three dB rows. A random upstream gradient and runs of six all-zero
/// A rows (dead ReLU units) exercise both the kernel's all-zero 4-row
/// block skip and zero rows inside live blocks.
MatmulRun run_narrow_matmul(int threads, std::int64_t k, std::int64_t m) {
  set_num_threads(threads);
  Rng rng(static_cast<std::uint64_t>(k * 100 + m));
  const std::int64_t n = 24 * 4096 + 3;
  std::vector<float> av(static_cast<std::size_t>(n * k));
  for (float& x : av) x = static_cast<float>(rng.normal());
  for (std::int64_t i = 0; i < n; ++i) {
    if (i % 16 < 6) std::fill_n(av.begin() + i * k, k, 0.0f);
  }
  Tensor a = Tensor::from_vector(std::move(av), n, k, /*grad=*/true);
  Tensor b = randn(k, m, rng, /*grad=*/true);
  Tensor upstream = randn(n, m, rng);
  Tensor c = matmul(a, b);
  sum_all(mul(c, upstream)).backward();
  return {copy_span(c.data()), copy_span(a.grad()), copy_span(b.grad())};
}

TEST_F(ParallelOpsTest, NarrowMatmulGradBitIdenticalAcrossThreadCounts) {
  for (std::int64_t k : {3, 16, 56}) {
    for (std::int64_t m : {8, 16}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " m=" + std::to_string(m));
      const MatmulRun serial = run_narrow_matmul(1, k, m);
      for (int threads : {2, 4, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const std::int64_t forked = forked_regions();
        const MatmulRun parallel = run_narrow_matmul(threads, k, m);
        EXPECT_GT(forked_regions(), forked) << "the run never forked";
        expect_bits_equal(serial.out, parallel.out, "narrow matmul forward");
        expect_bits_equal(serial.da, parallel.da, "narrow matmul dA");
        expect_bits_equal(serial.db, parallel.db, "narrow matmul dB");
      }
    }
  }
}

/// segment_sum with many collisions per segment: the forward scatter is
/// column-sliced, so per-slot accumulation order must match serial exactly.
struct SegmentRun {
  std::vector<float> out, dx;
};
SegmentRun run_segment_sum(int threads) {
  set_num_threads(threads);
  Rng rng(7);
  const std::int64_t e = 20000, n = 257;
  Tensor x = randn(e, 48, rng, /*grad=*/true);
  std::vector<int> seg(static_cast<std::size_t>(e));
  for (auto& s : seg) s = static_cast<int>(rng.uniform_int(0, n - 1));
  Tensor y = segment_sum(x, seg, n);
  sum_all(y).backward();
  return {copy_span(y.data()), copy_span(x.grad())};
}

TEST_F(ParallelOpsTest, SegmentSumForwardAndGradBitIdentical) {
  const SegmentRun serial = run_segment_sum(1);
  const std::int64_t forked = forked_regions();
  const SegmentRun parallel = run_segment_sum(8);
  EXPECT_GE(forked_regions() - forked, 2) << "forward and dX each fork";
  expect_bits_equal(serial.out, parallel.out, "segment_sum forward");
  expect_bits_equal(serial.dx, parallel.dx, "segment_sum dX");
}

/// ensure_grad() must allocate-and-zero only when the buffer is missing.
/// A tensor feeding multiple consumers receives one contribution per
/// consumer; if ensure_grad re-zeroed on every call, earlier contributions
/// would be wiped during the tape replay.
TEST_F(ParallelOpsTest, EnsureGradAccumulatesAcrossConsumers) {
  Tensor x = Tensor::from_vector({1.0f, 2.0f, 3.0f}, 3, 1, /*grad=*/true);
  Tensor twice = scale(x, 2.0f);
  Tensor thrice = scale(x, 3.0f);
  sum_all(add(twice, thrice)).backward();
  ASSERT_EQ(x.grad().size(), 3u);
  for (float g : x.grad()) EXPECT_FLOAT_EQ(g, 5.0f);
}

/// Gradients also accumulate across separate backward() calls until
/// zero_grad(); the allocation hoist must preserve that.
TEST_F(ParallelOpsTest, EnsureGradPreservesExistingBufferAcrossBackwards) {
  Tensor x = Tensor::from_vector({4.0f, -1.0f}, 2, 1, /*grad=*/true);
  sum_all(scale(x, 2.0f)).backward();
  for (float g : x.grad()) EXPECT_FLOAT_EQ(g, 2.0f);
  sum_all(scale(x, 3.0f)).backward();
  for (float g : x.grad()) EXPECT_FLOAT_EQ(g, 5.0f);
  x.zero_grad();
  sum_all(scale(x, 7.0f)).backward();
  for (float g : x.grad()) EXPECT_FLOAT_EQ(g, 7.0f);
}

}  // namespace
}  // namespace tg::nn
