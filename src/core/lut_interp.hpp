#pragma once
/// \file lut_interp.hpp
/// The paper's LUT interpolation module (§3.3.2, Fig. 3): from a per-edge
/// query vector, two MLPs produce interpolation coefficients for the two
/// LUT axes (7 each, per LUT); a Kronecker product combines them into a
/// 7×7 coefficient matrix which is dotted against the LUT value matrix.
/// Coefficients are softmax-normalized per axis so the module performs a
/// learned, differentiable generalization of bilinear interpolation.

#include "data/hetero_graph.hpp"
#include "nn/module.hpp"

namespace tg::core {

struct LutInterpConfig {
  int mlp_hidden = 32;
  int mlp_layers = 2;
};

class LutInterp : public nn::Module {
 public:
  /// `query_dim` is the width of the per-edge query (propagated state +
  /// embeddings + LUT axis indices).
  LutInterp(int query_dim, const LutInterpConfig& config, Rng& rng,
            const std::string& name = "lut_interp");

  /// query: [E, query_dim]; cell_feat: [E, 512] (Table 3 layout).
  /// Returns the interpolated value of each of the 8 LUTs: [E, 8],
  /// masked by the LUT-valid flags.
  [[nodiscard]] nn::Tensor forward(const nn::Tensor& query,
                                   const nn::Tensor& cell_feat) const;

  /// forward over `rows` query rows with no tensors and no tape:
  /// out[rows, 8]. Query row r is `query + r * query_dim`; it reads cell
  /// edge edges[r], whose Table-3 feature row is row lut_of_edge[edges[r]]
  /// of `lut_rows` (a LutTable's [R, 512], row-major), read in place. Each
  /// row is bit-identical to that row of forward (same per-row kernels
  /// and per-row op arithmetic). `scratch` holds infer_scratch(rows)
  /// floats; out must not alias the inputs or scratch.
  void infer_rows(const float* query, std::int64_t rows,
                  const float* lut_rows, const int* lut_of_edge,
                  const int* edges, float* out, float* scratch) const;
  /// Scratch floats infer_rows needs for `rows` rows.
  [[nodiscard]] std::size_t infer_scratch(std::int64_t rows) const;

 private:
  nn::Mlp coeff_a_;  ///< query → 8×7 axis-1 coefficients
  nn::Mlp coeff_b_;  ///< query → 8×7 axis-2 coefficients
};

}  // namespace tg::core
