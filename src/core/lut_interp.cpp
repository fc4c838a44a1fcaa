#include "core/lut_interp.hpp"

#include <algorithm>

#include "nn/kernels.hpp"
#include "util/check.hpp"

namespace tg::core {

using nn::Tensor;

namespace {

constexpr int kCoeffDim = data::kNumLutsPerArc * kLutDim;  // 8×7
/// Start of the LUT value block in the Table-3 cell-edge feature layout.
constexpr int kValueBegin = data::kCellEdgeValidDim + data::kCellEdgeIndexDim;

}  // namespace

LutInterp::LutInterp(int query_dim, const LutInterpConfig& config, Rng& rng,
                     const std::string& name) {
  coeff_a_ = nn::Mlp(query_dim, kCoeffDim, config.mlp_hidden, config.mlp_layers,
                     &rng, name + ".a");
  coeff_b_ = nn::Mlp(query_dim, kCoeffDim, config.mlp_hidden, config.mlp_layers,
                     &rng, name + ".b");
  register_module("a", coeff_a_);
  register_module("b", coeff_b_);
}

Tensor LutInterp::forward(const Tensor& query,
                          const Tensor& cell_edge_feat) const {
  TG_CHECK(query.rows() == cell_edge_feat.rows());
  TG_CHECK(cell_edge_feat.cols() == data::kCellEdgeFeatureDim);

  // Per-axis coefficients, normalized within each LUT's 7-vector.
  Tensor a = nn::softmax_groups(coeff_a_.forward(query), kLutDim);
  Tensor b = nn::softmax_groups(coeff_b_.forward(query), kLutDim);

  // LUT value block and validity flags from the Table-3 layout.
  Tensor lut_values = nn::slice_cols(cell_edge_feat, kValueBegin,
                                     data::kCellEdgeFeatureDim);
  Tensor valid = nn::slice_cols(cell_edge_feat, 0, data::kCellEdgeValidDim);

  // Kronecker-combined coefficient matrix dotted with the LUT matrix.
  Tensor out = nn::lut_kron_dot(a, b, lut_values, kLutDim);
  return nn::mul(out, valid);
}

void LutInterp::infer_rows(const float* query, std::int64_t rows,
                           const float* cell_edge_feat, const int* feat_rows,
                           float* out, float* scratch) const {
  const auto block = static_cast<std::size_t>(rows) * kCoeffDim;
  float* a = scratch;
  float* b = a + block;
  float* mlp = b + block;
  // Logits land in a / b and are normalized in place.
  coeff_a_.infer_rows(query, rows, a, mlp);
  coeff_b_.infer_rows(query, rows, b, mlp);
  for (std::int64_t r = 0; r < rows; ++r) {
    float* ar = a + r * kCoeffDim;
    float* br = b + r * kCoeffDim;
    nn::kern::softmax_groups_row(ar, ar, kCoeffDim, kLutDim);
    nn::kern::softmax_groups_row(br, br, kCoeffDim, kLutDim);
    const float* feat =
        cell_edge_feat +
        static_cast<std::int64_t>(feat_rows[r]) * data::kCellEdgeFeatureDim;
    float* y = out + r * data::kNumLutsPerArc;
    nn::kern::kron_dot_row(y, ar, br, feat + kValueBegin,
                           data::kNumLutsPerArc, kLutDim);
    // The valid flags are the row's first kCellEdgeValidDim floats.
    nn::kern::mul(y, y, feat, data::kNumLutsPerArc);
  }
}

std::size_t LutInterp::infer_scratch(std::int64_t rows) const {
  return static_cast<std::size_t>(2 * rows * kCoeffDim) +
         std::max(coeff_a_.infer_scratch(rows),
                  coeff_b_.infer_scratch(rows));
}

}  // namespace tg::core
