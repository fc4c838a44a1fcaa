#include "nn/module.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nn/gradcheck.hpp"

namespace tg::nn {
namespace {

TEST(Linear, ShapesAndBias) {
  Rng rng(1);
  Linear lin(4, 3, rng);
  EXPECT_EQ(lin.in_features(), 4);
  EXPECT_EQ(lin.out_features(), 3);
  EXPECT_EQ(lin.parameters().size(), 2u);  // W and b
  EXPECT_EQ(lin.num_parameters(), 4 * 3 + 3);
  Tensor x = Tensor::zeros(5, 4);
  Tensor y = lin.forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
  // Zero input → bias only, which is initialized to 0.
  for (float v : y.data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Linear, DifferentSeedsDifferentWeights) {
  Rng r1(1), r2(2);
  Linear a(3, 3, r1), b(3, 3, r2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.parameters()[0].data().size(); ++i) {
    any_diff |= a.parameters()[0].data()[i] != b.parameters()[0].data()[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(Mlp, ArchitectureMatchesConfig) {
  Rng rng(3);
  Mlp mlp(10, 4, /*hidden=*/16, /*hidden_layers=*/3, &rng);
  EXPECT_EQ(mlp.in_features(), 10);
  EXPECT_EQ(mlp.out_features(), 4);
  // 4 Linear layers → 8 parameter tensors.
  EXPECT_EQ(mlp.parameters().size(), 8u);
  Tensor x = Tensor::zeros(2, 10);
  Tensor y = mlp.forward(x);
  EXPECT_EQ(y.cols(), 4);
}

TEST(Mlp, ZeroHiddenLayersIsLinear) {
  Rng rng(4);
  Mlp mlp(5, 2, 16, 0, &rng);
  EXPECT_EQ(mlp.parameters().size(), 2u);
}

TEST(Mlp, ParameterNamesUnique) {
  Rng rng(5);
  Mlp mlp(5, 2, 8, 2, &rng, "m");
  const auto& names = mlp.parameter_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(Mlp, GradientsFlowToAllParameters) {
  Rng rng(6);
  Mlp mlp(3, 2, 8, 2, &rng);
  Tensor x = Tensor::rand_uniform(4, 3, 1.0f, rng);
  Tensor loss = mean_all(mul(mlp.forward(x), mlp.forward(x)));
  loss.backward();
  for (const Tensor& p : mlp.parameters()) {
    double norm = 0.0;
    Tensor copy = p;
    for (float g : copy.grad()) norm += std::abs(g);
    EXPECT_GT(norm, 0.0);
  }
}

TEST(Mlp, GradCheckThroughWeights) {
  Rng rng(7);
  Mlp mlp(3, 2, 4, 1, &rng);
  Tensor x = Tensor::rand_uniform(3, 3, 1.0f, rng);
  std::vector<Tensor> params(mlp.parameters().begin(), mlp.parameters().end());
  const GradCheckResult res = gradcheck(
      [&](const std::vector<Tensor>&) {
        return mean_all(mul(mlp.forward(x), mlp.forward(x)));
      },
      params);
  EXPECT_TRUE(res.ok) << res.max_rel_error;
}

/// infer_rows is the tape-free form of forward / forward_relu: every row
/// it produces matches the op result bit for bit, for ragged widths (SIMD
/// tails), zero and several hidden layers, one row or many, and both
/// output activations.
TEST(Mlp, InferRowsMatchesForwardBitwise) {
  Rng rng(9);
  for (const int hidden_layers : {0, 1, 2}) {
    for (const std::int64_t out : {3, 8, 56}) {
      const Mlp mlp(13, out, /*hidden=*/21, hidden_layers, &rng);
      const Tensor x = Tensor::rand_uniform(6, 13, 1.0f, rng);
      for (const bool relu : {false, true}) {
        const Tensor y = relu ? mlp.forward_relu(x) : mlp.forward(x);
        for (const std::int64_t rows : {std::int64_t{1}, x.rows()}) {
          std::vector<float> scratch(mlp.infer_scratch(rows));
          std::vector<float> got(static_cast<std::size_t>(rows * out));
          for (std::int64_t r0 = 0; r0 < x.rows(); r0 += rows) {
            mlp.infer_rows(x.data().data() + r0 * 13, rows, got.data(),
                           scratch.data(), relu);
            EXPECT_EQ(std::memcmp(got.data(), y.data().data() + r0 * out,
                                  got.size() * sizeof(float)),
                      0)
                << "layers=" << hidden_layers << " out=" << out
                << " relu=" << relu << " rows=" << rows << " r0=" << r0;
          }
        }
      }
    }
  }
}

TEST(Module, ZeroGradClearsAll) {
  Rng rng(8);
  Mlp mlp(3, 2, 4, 1, &rng);
  Tensor x = Tensor::rand_uniform(2, 3, 1.0f, rng);
  sum_all(mlp.forward(x)).backward();
  mlp.zero_grad();
  for (const Tensor& p : mlp.parameters()) {
    Tensor copy = p;
    for (float g : copy.grad()) EXPECT_FLOAT_EQ(g, 0.0f);
  }
}

}  // namespace
}  // namespace tg::nn
