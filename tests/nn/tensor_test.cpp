#include "nn/tensor.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nn/ops.hpp"
#include "util/check.hpp"

namespace tg::nn {
namespace {

TEST(Tensor, ZerosShapeAndValues) {
  Tensor t = Tensor::zeros(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.numel(), 12);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
  EXPECT_FALSE(t.requires_grad());
}

TEST(Tensor, FromVectorChecksSize) {
  EXPECT_NO_THROW(Tensor::from_vector({1, 2, 3, 4}, 2, 2));
  EXPECT_THROW(Tensor::from_vector({1, 2, 3}, 2, 2), CheckError);
}

TEST(Tensor, AtIndexing) {
  Tensor t = Tensor::from_vector({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 2), 3.0f);
  EXPECT_EQ(t.at(1, 1), 5.0f);
  EXPECT_THROW(t.at(2, 0), CheckError);
}

TEST(Tensor, ItemRequiresScalar) {
  Tensor s = Tensor::from_vector({7.5f}, 1, 1);
  EXPECT_FLOAT_EQ(s.item(), 7.5f);
  Tensor t = Tensor::zeros(2, 1);
  EXPECT_THROW(t.item(), CheckError);
}

TEST(Tensor, RandUniformBounds) {
  Rng rng(1);
  Tensor t = Tensor::rand_uniform(100, 10, 0.5f, rng);
  for (float v : t.data()) {
    EXPECT_GE(v, -0.5f);
    EXPECT_LE(v, 0.5f);
  }
}

TEST(Tensor, BackwardOnScalarOnly) {
  Tensor t = Tensor::zeros(2, 2, true);
  EXPECT_THROW(t.backward(), CheckError);
}

TEST(Tensor, SimpleBackwardChain) {
  Tensor x = Tensor::from_vector({2.0f}, 1, 1, true);
  Tensor y = mul(x, x);  // y = x²
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.0f);  // dy/dx = 2x = 4
}

TEST(Tensor, GradAccumulatesAcrossBackward) {
  Tensor x = Tensor::from_vector({3.0f}, 1, 1, true);
  Tensor y1 = scale(x, 2.0f);
  y1.backward();
  Tensor y2 = scale(x, 5.0f);
  y2.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 7.0f);  // 2 + 5
}

TEST(Tensor, ZeroGradClears) {
  Tensor x = Tensor::from_vector({3.0f}, 1, 1, true);
  scale(x, 2.0f).backward();
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(Tensor, DiamondGraphAccumulates) {
  // y = x*x + 3x reuses x twice.
  Tensor x = Tensor::from_vector({5.0f}, 1, 1, true);
  Tensor y = add(mul(x, x), scale(x, 3.0f));
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f * 5.0f + 3.0f);
}

TEST(Tensor, DetachBreaksGraph) {
  Tensor x = Tensor::from_vector({2.0f}, 1, 1, true);
  Tensor d = detach(mul(x, x));
  EXPECT_FALSE(d.requires_grad());
  EXPECT_FLOAT_EQ(d.item(), 4.0f);
}

TEST(Tensor, NoGradNoParents) {
  Tensor a = Tensor::from_vector({1.0f}, 1, 1, false);
  Tensor b = Tensor::from_vector({2.0f}, 1, 1, false);
  Tensor c = add(a, b);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(c.impl()->parents.empty());
}

TEST(Tensor, NoGradGuardNestsAndRestores) {
  EXPECT_TRUE(grad_enabled());
  {
    const NoGradGuard outer;
    EXPECT_FALSE(grad_enabled());
    {
      const NoGradGuard inner;
      EXPECT_FALSE(grad_enabled());
    }
    EXPECT_FALSE(grad_enabled());  // inner restored the outer's mode
  }
  EXPECT_TRUE(grad_enabled());
}

TEST(Tensor, NoGradGuardIsThreadLocal) {
  const NoGradGuard no_grad;
  bool worker_mode = false;
  std::thread([&] { worker_mode = grad_enabled(); }).join();
  EXPECT_TRUE(worker_mode);
  EXPECT_FALSE(grad_enabled());
}

/// Every op in ops.hpp, run on grad-requiring inputs. Shapes exercise the
/// interesting paths: row broadcast, duplicate gather indices, empty and
/// tied segment_max segments, a layer_norm row with zero variance.
std::vector<std::pair<const char*, std::function<Tensor()>>> all_ops() {
  Rng rng(7);
  auto leaf = [&rng](std::int64_t r, std::int64_t c) {
    return Tensor::rand_uniform(r, c, 1.0f, rng, /*requires_grad=*/true);
  };
  const Tensor a = leaf(6, 4), b = leaf(6, 4), bias = leaf(1, 4);
  const Tensor w = leaf(4, 3), c = leaf(3, 4), sq = leaf(6, 2);
  const Tensor gamma = leaf(1, 4), beta = leaf(1, 4);
  const Tensor coeff_a = leaf(6, 6), coeff_b = leaf(6, 6), lut = leaf(6, 18);
  const Tensor target = Tensor::rand_uniform(6, 4, 1.0f, rng);
  const Tensor rows_target = Tensor::rand_uniform(3, 4, 1.0f, rng);
  // Rows 0 and 3 tie on every column, so segment_max must keep row 0.
  std::vector<float> tie(24);
  for (std::size_t i = 0; i < tie.size(); ++i) {
    tie[i] = static_cast<float>(i % 5) - 2.0f;
  }
  for (std::size_t k = 0; k < 4; ++k) tie[12 + k] = tie[k];
  const Tensor tied = Tensor::from_vector(tie, 6, 4, /*requires_grad=*/true);
  // Layer-norm input whose second row is constant (zero variance).
  Tensor ln_in = leaf(3, 4);
  for (std::int64_t k = 0; k < 4; ++k) ln_in.data()[4 + k] = 0.5f;
  const SpmmCsr csr = build_spmm_csr({0, 1, 2, 5, 5}, {0, 0, 3, 1, 3},
                                     {0.5f, -1.0f, 2.0f, 0.25f, 1.5f}, 4, 6);
  const Tensor parts2[] = {a, sq};
  const Tensor parts_rows[] = {a, c};
  const Tensor sources[] = {a, c};
  return {
      {"add", [=] { return add(a, b); }},
      {"add_broadcast", [=] { return add(a, bias); }},
      {"sub", [=] { return sub(a, b); }},
      {"mul", [=] { return mul(a, b); }},
      {"scale", [=] { return scale(a, -1.5f); }},
      {"relu", [=] { return relu(a); }},
      {"add_relu", [=] { return add_relu(a, b); }},
      {"add_relu_broadcast", [=] { return add_relu(a, bias); }},
      {"mul_sigmoid", [=] { return mul_sigmoid(a, b); }},
      {"leaky_relu", [=] { return leaky_relu(a, 0.1f); }},
      {"sigmoid", [=] { return sigmoid(a); }},
      {"tanh_op", [=] { return tanh_op(a); }},
      {"softplus", [=] { return softplus(scale(a, 30.0f)); }},
      {"matmul", [=] { return matmul(a, w); }},
      {"concat_cols", [=] { return concat_cols(parts2); }},
      {"slice_cols", [=] { return slice_cols(a, 1, 3); }},
      {"concat_rows", [=] { return concat_rows(parts_rows); }},
      {"gather_rows", [=] { return gather_rows(a, {5, 0, 0, 2}); }},
      {"multi_gather",
       [=] { return multi_gather(sources, {1, 0, 1, 0}, {2, 5, 0, 5}); }},
      {"segment_sum",
       [=] { return segment_sum(a, {0, 2, 2, 0, 3, 2}, 5); }},
      {"segment_max",
       [=] { return segment_max(tied, {0, 2, 2, 0, 3, 2}, 5); }},
      {"spmm",
       [=] {
         return spmm({0, 1, 2, 5, 5}, {0, 0, 3, 1, 3},
                     {0.5f, -1.0f, 2.0f, 0.25f, 1.5f}, a, 4);
       }},
      {"spmm_csr", [=] { return spmm_csr(csr, a); }},
      {"sum_all", [=] { return sum_all(a); }},
      {"mean_all", [=] { return mean_all(a); }},
      {"mse_loss", [=] { return mse_loss(a, target); }},
      {"mse_loss_rows",
       [=] { return mse_loss_rows(a, {4, 1, 4}, rows_target); }},
      {"layer_norm", [=] { return layer_norm(ln_in, gamma, beta); }},
      {"softmax_groups", [=] { return softmax_groups(a, 2); }},
      {"lut_kron_dot",
       [=] { return lut_kron_dot(coeff_a, coeff_b, lut, 3); }},
  };
}

TEST(Tensor, NoGradGuardOpsBitIdenticalAndTapeFree) {
  for (const auto& [name, op] : all_ops()) {
    SCOPED_TRACE(name);
    const Tensor taped = op();
    ASSERT_TRUE(taped.requires_grad());
    ASSERT_FALSE(taped.impl()->parents.empty());
    Tensor plain;
    {
      const NoGradGuard no_grad;
      plain = op();
    }
    EXPECT_FALSE(plain.requires_grad());
    EXPECT_TRUE(plain.impl()->parents.empty());
    EXPECT_FALSE(plain.impl()->backward_fn);
    EXPECT_EQ(plain.impl()->op, nullptr);
    ASSERT_EQ(plain.rows(), taped.rows());
    ASSERT_EQ(plain.cols(), taped.cols());
    EXPECT_EQ(std::memcmp(plain.data().data(), taped.data().data(),
                          taped.data().size() * sizeof(float)),
              0);
  }
}

TEST(Tensor, BackwardUnderNoGradGuardFailsLoudly) {
  Tensor x = Tensor::from_vector({2.0f}, 1, 1, true);
  Tensor y = mul(x, x);
  const NoGradGuard no_grad;
  try {
    y.backward();
    FAIL() << "backward() under NoGradGuard must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("NoGradGuard"), std::string::npos)
        << e.what();
  }
}

TEST(Tensor, DeepChainBackwardIterative) {
  // 3000-deep chain would overflow a recursive DFS; ours is iterative.
  Tensor x = Tensor::from_vector({1.0f}, 1, 1, true);
  Tensor y = x;
  for (int i = 0; i < 3000; ++i) y = scale(y, 1.0f);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);
}

}  // namespace
}  // namespace tg::nn
