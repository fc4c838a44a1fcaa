/// Boundary-condition tests for the tensor ops: empty index sets, single
/// elements, degenerate shapes — the places scatter/gather code breaks.

#include <gtest/gtest.h>

#include "nn/ops.hpp"
#include "util/check.hpp"

namespace tg::nn {
namespace {

TEST(EdgeCases, GatherEmptyIndexList) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, 2, 2);
  Tensor g = gather_rows(a, {});
  EXPECT_EQ(g.rows(), 0);
  EXPECT_EQ(g.cols(), 2);
}

TEST(EdgeCases, SegmentSumZeroRows) {
  Tensor a = Tensor::zeros(0, 3);
  Tensor s = segment_sum(a, {}, 4);
  EXPECT_EQ(s.rows(), 4);
  for (float v : s.data()) EXPECT_EQ(v, 0.0f);
}

TEST(EdgeCases, SegmentMaxAllOneSegment) {
  Tensor a = Tensor::from_vector({1, 5, 3}, 3, 1);
  Tensor m = segment_max(a, {0, 0, 0}, 1);
  EXPECT_FLOAT_EQ(m.at(0), 5.0f);
}

TEST(EdgeCases, ConcatSinglePart) {
  Tensor a = Tensor::from_vector({1, 2}, 1, 2);
  const Tensor parts[] = {a};
  Tensor c = concat_cols(parts);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 1), 2.0f);
}

TEST(EdgeCases, SliceFullRangeIsIdentityValues) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, 2, 2);
  Tensor s = slice_cols(a, 0, 2);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(s.data()[static_cast<std::size_t>(i)],
              a.data()[static_cast<std::size_t>(i)]);
  }
}

TEST(EdgeCases, SliceBadRangeThrows) {
  Tensor a = Tensor::zeros(2, 3);
  EXPECT_THROW(slice_cols(a, 2, 2), CheckError);
  EXPECT_THROW(slice_cols(a, 1, 4), CheckError);
  EXPECT_THROW(slice_cols(a, -1, 2), CheckError);
}

TEST(EdgeCases, MatmulWithZeroRows) {
  Tensor a = Tensor::zeros(0, 4);
  Tensor b = Tensor::zeros(4, 2);
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.rows(), 0);
  EXPECT_EQ(c.cols(), 2);
}

TEST(EdgeCases, SpmmCsrNoEdgesIsZero) {
  Tensor x = Tensor::from_vector({1, 2}, 1, 2);
  Tensor y = spmm_csr(build_spmm_csr({}, {}, {}, 3, 1), x);
  EXPECT_EQ(y.rows(), 3);
  for (float v : y.data()) EXPECT_EQ(v, 0.0f);
}

TEST(EdgeCases, MseLossRowsEmptySubsetIsZero) {
  Tensor pred = Tensor::from_vector({1, 2}, 2, 1);
  Tensor target = Tensor::zeros(0, 1);
  EXPECT_FLOAT_EQ(mse_loss_rows(pred, {}, target).item(), 0.0f);
}

TEST(EdgeCases, BackwardThroughEmptyGather) {
  // Empty gathers must not corrupt gradient flow of sibling branches.
  Tensor a = Tensor::from_vector({2.0f, 3.0f}, 2, 1, true);
  Tensor empty = gather_rows(a, {});
  const Tensor parts[] = {empty, gather_rows(a, {0, 1})};
  Tensor both = concat_rows(parts);
  sum_all(mul(both, both)).backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 4.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 6.0f);
}

TEST(EdgeCases, SoftmaxGroupSizeOneIsAllOnes) {
  Tensor a = Tensor::from_vector({-5, 0, 7}, 1, 3);
  Tensor s = softmax_groups(a, 1);
  for (float v : s.data()) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(EdgeCases, SoftmaxGroupRejectsNonDivisor) {
  Tensor a = Tensor::zeros(1, 5);
  EXPECT_THROW(softmax_groups(a, 2), CheckError);
}

TEST(EdgeCases, LutKronDotShapeChecks) {
  Tensor a = Tensor::zeros(2, 6);
  Tensor b = Tensor::zeros(2, 6);
  Tensor lut_bad = Tensor::zeros(2, 10);
  EXPECT_THROW(lut_kron_dot(a, b, lut_bad, 3), CheckError);
}

}  // namespace
}  // namespace tg::nn
