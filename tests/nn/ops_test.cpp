#include "nn/ops.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace tg::nn {
namespace {

TEST(Ops, AddSameShape) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::from_vector({10, 20, 30, 40}, 2, 2);
  Tensor c = add(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 44.0f);
}

TEST(Ops, AddRowBroadcast) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::from_vector({100, 200}, 1, 2);
  Tensor c = add(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 101.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 204.0f);
}

TEST(Ops, AddShapeMismatchThrows) {
  Tensor a = Tensor::zeros(2, 2);
  Tensor b = Tensor::zeros(3, 2);
  EXPECT_THROW(add(a, b), CheckError);
}

TEST(Ops, SubAndScale) {
  Tensor a = Tensor::from_vector({5, 7}, 2, 1);
  Tensor b = Tensor::from_vector({1, 2}, 2, 1);
  Tensor c = sub(a, b);
  EXPECT_FLOAT_EQ(c.at(0), 4.0f);
  EXPECT_FLOAT_EQ(c.at(1), 5.0f);
  Tensor d = scale(a, -2.0f);
  EXPECT_FLOAT_EQ(d.at(1), -14.0f);
}

TEST(Ops, MatmulKnownValues) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::from_vector({5, 6, 7, 8}, 2, 2);
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Ops, MatmulShapes) {
  Tensor a = Tensor::zeros(3, 4);
  Tensor b = Tensor::zeros(4, 5);
  EXPECT_EQ(matmul(a, b).rows(), 3);
  EXPECT_EQ(matmul(a, b).cols(), 5);
  EXPECT_THROW(matmul(b, a), CheckError);
}

TEST(Ops, Relu) {
  Tensor x = Tensor::from_vector({-2, 0, 3}, 3, 1);
  Tensor r = relu(x);
  EXPECT_FLOAT_EQ(r.at(0), 0.0f);
  EXPECT_FLOAT_EQ(r.at(2), 3.0f);
}

TEST(Ops, ConcatAndSliceCols) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::from_vector({9, 8}, 2, 1);
  const Tensor parts[] = {a, b};
  Tensor c = concat_cols(parts);
  EXPECT_EQ(c.cols(), 3);
  EXPECT_FLOAT_EQ(c.at(0, 2), 9.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 3.0f);
  Tensor s = slice_cols(c, 1, 3);
  EXPECT_EQ(s.cols(), 2);
  EXPECT_FLOAT_EQ(s.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(s.at(0, 1), 9.0f);
}

TEST(Ops, ConcatRows) {
  Tensor a = Tensor::from_vector({1, 2}, 1, 2);
  Tensor b = Tensor::from_vector({3, 4, 5, 6}, 2, 2);
  const Tensor parts[] = {a, b};
  Tensor c = concat_rows(parts);
  EXPECT_EQ(c.rows(), 3);
  EXPECT_FLOAT_EQ(c.at(2, 1), 6.0f);
}

TEST(Ops, GatherRows) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, 3, 2);
  Tensor g = gather_rows(a, {2, 0, 2});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_FLOAT_EQ(g.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(g.at(2, 1), 6.0f);
}

TEST(Ops, MultiGather) {
  Tensor a = Tensor::from_vector({1, 2}, 1, 2);
  Tensor b = Tensor::from_vector({3, 4, 5, 6}, 2, 2);
  const Tensor sources[] = {a, b};
  Tensor g = multi_gather(sources, {1, 0, 1}, {1, 0, 0});
  EXPECT_FLOAT_EQ(g.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(g.at(2, 1), 4.0f);
}

TEST(Ops, SegmentSum) {
  Tensor a = Tensor::from_vector({1, 10, 2, 20, 3, 30}, 3, 2);
  Tensor s = segment_sum(a, {1, 1, 0}, 3);
  EXPECT_EQ(s.rows(), 3);
  EXPECT_FLOAT_EQ(s.at(0, 0), 3.0f);   // row 2
  EXPECT_FLOAT_EQ(s.at(1, 0), 3.0f);   // rows 0+1
  EXPECT_FLOAT_EQ(s.at(1, 1), 30.0f);  // 10+20
  EXPECT_FLOAT_EQ(s.at(2, 0), 0.0f);   // empty
}

TEST(Ops, SegmentMax) {
  Tensor a = Tensor::from_vector({1, 10, 5, 2, 3, 30}, 3, 2);
  Tensor m = segment_max(a, {0, 0, 1}, 2);
  EXPECT_FLOAT_EQ(m.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(m.at(0, 1), 10.0f);
  EXPECT_FLOAT_EQ(m.at(1, 1), 30.0f);
}

TEST(Ops, SegmentMaxNegativeValues) {
  Tensor a = Tensor::from_vector({-5, -2}, 2, 1);
  Tensor m = segment_max(a, {0, 0}, 2);
  EXPECT_FLOAT_EQ(m.at(0), -2.0f);  // max of negatives, not zero
  EXPECT_FLOAT_EQ(m.at(1), 0.0f);   // empty segment = 0
}

TEST(Ops, SegmentMaxTieKeepsFirstRow) {
  // Rows 0 and 1 tie in segment 0; the first row wins the value and the
  // gradient.
  Tensor a = Tensor::from_vector({-3, 2, -3, 2}, 2, 2, true);
  Tensor m = segment_max(a, {0, 0}, 1);
  EXPECT_FLOAT_EQ(m.at(0, 0), -3.0f);
  sum_all(m).backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(a.grad()[2], 0.0f);
}

TEST(Ops, SpmmCsr) {
  // Y[dst] += w * X[src]: two edges into row 0.
  Tensor x = Tensor::from_vector({1, 2, 3, 4}, 2, 2);
  Tensor y = spmm_csr(build_spmm_csr({0, 1}, {0, 0}, {0.5f, 2.0f}, 3, 2), x);
  EXPECT_EQ(y.rows(), 3);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.5f * 1 + 2.0f * 3);
  EXPECT_FLOAT_EQ(y.at(0, 1), 0.5f * 2 + 2.0f * 4);
  EXPECT_FLOAT_EQ(y.at(1, 0), 0.0f);
}

TEST(Ops, SumMeanAll) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, 2, 2);
  EXPECT_FLOAT_EQ(sum_all(a).item(), 10.0f);
  EXPECT_FLOAT_EQ(mean_all(a).item(), 2.5f);
}

TEST(Ops, MseLoss) {
  Tensor p = Tensor::from_vector({1, 2}, 2, 1);
  Tensor t = Tensor::from_vector({0, 4}, 2, 1);
  EXPECT_FLOAT_EQ(mse_loss(p, t).item(), (1.0f + 4.0f) / 2.0f);
}

TEST(Ops, MseLossRowsSubset) {
  Tensor p = Tensor::from_vector({1, 2, 3}, 3, 1);
  Tensor t = Tensor::from_vector({0, 5}, 2, 1);
  // rows {0, 2} vs targets {0, 5}: ((1-0)² + (3-5)²)/2.
  EXPECT_FLOAT_EQ(mse_loss_rows(p, {0, 2}, t).item(), 2.5f);
}

TEST(Ops, SoftmaxGroupsNormalizes) {
  Tensor a = Tensor::from_vector({0, 0, 1, 3}, 1, 4);
  Tensor s = softmax_groups(a, 2);
  EXPECT_NEAR(s.at(0, 0) + s.at(0, 1), 1.0f, 1e-6);
  EXPECT_NEAR(s.at(0, 2) + s.at(0, 3), 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(s.at(0, 0), s.at(0, 1));  // equal logits
  EXPECT_GT(s.at(0, 3), s.at(0, 2));
}

TEST(Ops, SoftmaxGroupsLargeLogitsStable) {
  Tensor a = Tensor::from_vector({1000, 1000}, 1, 2);
  Tensor s = softmax_groups(a, 2);
  EXPECT_NEAR(s.at(0, 0), 0.5f, 1e-6);
}

TEST(Ops, LutKronDotBilinearEquivalence) {
  // With one-hot coefficient vectors, lut_kron_dot must read the exact
  // LUT cell: a=e_i, b=e_j → out = lut[i*d+j].
  const std::int64_t d = 3;
  std::vector<float> lut_vals(9);
  for (int i = 0; i < 9; ++i) lut_vals[static_cast<std::size_t>(i)] = static_cast<float>(i);
  Tensor lut = Tensor::from_vector(lut_vals, 1, 9);
  Tensor a = Tensor::from_vector({0, 1, 0}, 1, 3);  // e_1
  Tensor b = Tensor::from_vector({0, 0, 1}, 1, 3);  // e_2
  Tensor out = lut_kron_dot(a, b, lut, d);
  EXPECT_EQ(out.cols(), 1);
  EXPECT_FLOAT_EQ(out.at(0, 0), 5.0f);  // row 1, col 2
}

TEST(Ops, LutKronDotMultipleGroups) {
  const std::int64_t d = 2;
  // Two groups of 2×2 LUTs.
  Tensor lut = Tensor::from_vector({1, 2, 3, 4, 10, 20, 30, 40}, 1, 8);
  Tensor a = Tensor::from_vector({1, 0, 0, 1}, 1, 4);
  Tensor b = Tensor::from_vector({0, 1, 1, 0}, 1, 4);
  Tensor out = lut_kron_dot(a, b, lut, d);
  EXPECT_EQ(out.cols(), 2);
  EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f);   // group 0: row 0 col 1
  EXPECT_FLOAT_EQ(out.at(0, 1), 30.0f);  // group 1: row 1 col 0
}

TEST(Ops, LutKronDotConvexCombination) {
  // Uniform coefficients = average of all LUT cells.
  const std::int64_t d = 2;
  Tensor lut = Tensor::from_vector({1, 2, 3, 4}, 1, 4);
  Tensor a = Tensor::from_vector({0.5f, 0.5f}, 1, 2);
  Tensor b = Tensor::from_vector({0.5f, 0.5f}, 1, 2);
  EXPECT_FLOAT_EQ(lut_kron_dot(a, b, lut, d).at(0, 0), 2.5f);
}

}  // namespace
}  // namespace tg::nn
