#include "core/lut_interp.hpp"

#include <gtest/gtest.h>

#include "core/test_fixture.hpp"
#include "testing/lut_rows.hpp"

namespace tg::core {
namespace {

TEST(LutInterp, OutputShape) {
  Rng rng(1);
  LutInterp module(10, LutInterpConfig{.mlp_hidden = 8, .mlp_layers = 1}, rng);
  const auto& g = testing::train_graph();
  const nn::Tensor cell_edge_feat = tg::testing::cell_edge_rows(g);
  const std::int64_t e = std::min<std::int64_t>(cell_edge_feat.rows(), 16);
  nn::Tensor query = nn::Tensor::rand_uniform(e, 10, 1.0f, rng);
  nn::Tensor feat = nn::gather_rows(cell_edge_feat, [&] {
    std::vector<int> rows;
    for (std::int64_t i = 0; i < e; ++i) rows.push_back(static_cast<int>(i));
    return rows;
  }());
  nn::Tensor out = module.forward(query, feat);
  EXPECT_EQ(out.rows(), e);
  EXPECT_EQ(out.cols(), data::kNumLutsPerArc);
}

TEST(LutInterp, OutputsWithinLutValueRange) {
  // Softmax coefficients form a convex combination of LUT cells, so each
  // output lies within [min, max] of its LUT's values.
  Rng rng(2);
  LutInterp module(6, LutInterpConfig{.mlp_hidden = 8, .mlp_layers = 1}, rng);
  const auto& g = testing::train_graph();
  const nn::Tensor cell_edge_feat = tg::testing::cell_edge_rows(g);
  const std::int64_t e = std::min<std::int64_t>(cell_edge_feat.rows(), 8);
  std::vector<int> rows;
  for (std::int64_t i = 0; i < e; ++i) rows.push_back(static_cast<int>(i));
  nn::Tensor feat = nn::gather_rows(cell_edge_feat, rows);
  nn::Tensor query = nn::Tensor::rand_uniform(e, 6, 2.0f, rng);
  nn::Tensor out = module.forward(query, feat);

  const int value_begin = data::kCellEdgeValidDim + data::kCellEdgeIndexDim;
  for (std::int64_t r = 0; r < e; ++r) {
    for (int lut = 0; lut < data::kNumLutsPerArc; ++lut) {
      float lo = 1e30f, hi = -1e30f;
      for (int k = 0; k < kLutCells; ++k) {
        const float v = feat.at(r, value_begin + lut * kLutCells + k);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      EXPECT_GE(out.at(r, lut), lo - 1e-4f);
      EXPECT_LE(out.at(r, lut), hi + 1e-4f);
    }
  }
}

TEST(LutInterp, GradientsFlowToCoefficientMlps) {
  Rng rng(3);
  LutInterp module(6, LutInterpConfig{.mlp_hidden = 8, .mlp_layers = 1}, rng);
  const auto& g = testing::train_graph();
  const nn::Tensor cell_edge_feat = tg::testing::cell_edge_rows(g);
  std::vector<int> rows{0, 1, 2, 3};
  nn::Tensor feat = nn::gather_rows(cell_edge_feat, rows);
  nn::Tensor query = nn::Tensor::rand_uniform(4, 6, 1.0f, rng, true);
  nn::Tensor out = module.forward(query, feat);
  nn::sum_all(out).backward();
  for (const nn::Tensor& p : module.parameters()) {
    nn::Tensor copy = p;
    double norm = 0.0;
    for (float v : copy.grad()) norm += std::abs(v);
    EXPECT_GT(norm, 0.0);
  }
}

TEST(LutInterp, ValidMaskZeroesOutput) {
  // Synthetic cell-edge features with all-zero valid flags must yield 0.
  Rng rng(4);
  LutInterp module(4, LutInterpConfig{.mlp_hidden = 8, .mlp_layers = 1}, rng);
  std::vector<float> feat(data::kCellEdgeFeatureDim, 0.5f);
  for (int l = 0; l < data::kCellEdgeValidDim; ++l) feat[static_cast<std::size_t>(l)] = 0.0f;
  nn::Tensor cell_feat = nn::Tensor::from_vector(std::move(feat), 1,
                                                 data::kCellEdgeFeatureDim);
  nn::Tensor query = nn::Tensor::rand_uniform(1, 4, 1.0f, rng);
  nn::Tensor out = module.forward(query, cell_feat);
  for (float v : out.data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(LutInterp, DifferentQueriesDifferentOutputs) {
  Rng rng(5);
  LutInterp module(4, LutInterpConfig{.mlp_hidden = 8, .mlp_layers = 1}, rng);
  const auto& g = testing::train_graph();
  const nn::Tensor cell_edge_feat = tg::testing::cell_edge_rows(g);
  std::vector<int> rows{0, 0};  // same LUT twice
  nn::Tensor feat = nn::gather_rows(cell_edge_feat, rows);
  nn::Tensor query = nn::Tensor::from_vector(
      {1.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 5.0f}, 2, 4);
  nn::Tensor out = module.forward(query, feat);
  double diff = 0.0;
  for (int l = 0; l < data::kNumLutsPerArc; ++l) {
    diff += std::abs(out.at(0, l) - out.at(1, l));
  }
  EXPECT_GT(diff, 1e-6);
}

}  // namespace
}  // namespace tg::core
