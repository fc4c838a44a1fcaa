#pragma once
/// \file ops.hpp
/// Differentiable operations over Tensor. Every op records a backward
/// closure when any input requires grad — unless a NoGradGuard
/// (tensor.hpp) is active on the calling thread, in which case it returns
/// a plain, bit-identical result and skips its tape-only side buffers.
/// Index arguments (gather/scatter targets, segment ids) are plain
/// integer vectors — they are not differentiated through.
///
/// Conventions: rank-2 tensors are row-major [rows, cols]; "segment" ops
/// reduce edge-parallel tensors ([E, D]) into node-parallel tensors
/// ([N, D]) — the message-passing primitives of the paper's models.

#include <memory>
#include <span>
#include <vector>

#include "nn/tensor.hpp"

namespace tg::nn {

/// Shared-ownership index array. The gather/scatter/segment ops keep their
/// indices alive inside backward closures; callers that reuse the same
/// indices every step (PropPlan, GCNII adjacency, graph edge lists) pass a
/// shared handle once instead of copying the vector per call.
using IndexVec = std::shared_ptr<const std::vector<int>>;

/// Parameter wrapper for the shared-index overloads. Constructible only
/// from an IndexVec (implicitly), never from a braced initializer list —
/// so `gather_rows(a, {0, 1})` still resolves to the std::vector overload
/// unambiguously.
class SharedIndex {
 public:
  SharedIndex(IndexVec v) : v_(std::move(v)) {}  // NOLINT: implicit by design
  [[nodiscard]] const IndexVec& get() const { return v_; }

 private:
  IndexVec v_;
};

// ---- pointwise --------------------------------------------------------
/// a + b. Shapes must match, or b may be a [1, D] row vector broadcast
/// over a's rows (bias add).
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor sub(const Tensor& a, const Tensor& b);
/// Elementwise product (same shape).
[[nodiscard]] Tensor mul(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor scale(const Tensor& a, float s);
[[nodiscard]] Tensor relu(const Tensor& a);
/// Fused relu(a + b) — one pass, one output tensor instead of two. Same
/// broadcast rule as add; the tape records a single node whose backward
/// masks by the (shared) output.
[[nodiscard]] Tensor add_relu(const Tensor& a, const Tensor& b);
/// Fused a · sigmoid(b) (same shape) — the gating chain emitted as one
/// node; σ(b) is cached for backward.
[[nodiscard]] Tensor mul_sigmoid(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor leaky_relu(const Tensor& a, float slope = 0.01f);
[[nodiscard]] Tensor sigmoid(const Tensor& a);
[[nodiscard]] Tensor tanh_op(const Tensor& a);
/// Numerically stable softplus — used where outputs must stay positive
/// (delays, slews).
[[nodiscard]] Tensor softplus(const Tensor& a);

// ---- linear algebra ----------------------------------------------------
/// [N, K] × [K, M] → [N, M].
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

// ---- shape ---------------------------------------------------------------
/// Concatenate along columns; all inputs share the row count.
[[nodiscard]] Tensor concat_cols(std::span<const Tensor> parts);
/// Columns [begin, end) of a.
[[nodiscard]] Tensor slice_cols(const Tensor& a, std::int64_t begin,
                                std::int64_t end);
/// Concatenate along rows; all inputs share the column count.
[[nodiscard]] Tensor concat_rows(std::span<const Tensor> parts);

// ---- gather / scatter ---------------------------------------------------
/// out[i] = a[idx[i]] (rows). The IndexVec overloads share the caller's
/// index arrays with the backward closure (zero copies); the vector
/// overloads wrap once and forward.
[[nodiscard]] Tensor gather_rows(const Tensor& a, SharedIndex idx);
[[nodiscard]] Tensor gather_rows(const Tensor& a, std::vector<int> idx);
/// out[i] = sources[src_tensor[i]].row(src_row[i]); all sources share the
/// column count. Gathering across per-level tensors in the levelized
/// propagation stage.
[[nodiscard]] Tensor multi_gather(std::span<const Tensor> sources,
                                  SharedIndex src_tensor, SharedIndex src_row);
[[nodiscard]] Tensor multi_gather(std::span<const Tensor> sources,
                                  std::vector<int> src_tensor,
                                  std::vector<int> src_row);
/// out[s] = Σ_{i: seg[i]==s} a[i]; out has `num_segments` rows. Empty
/// segments yield zero rows.
[[nodiscard]] Tensor segment_sum(const Tensor& a, SharedIndex seg,
                                 std::int64_t num_segments);
[[nodiscard]] Tensor segment_sum(const Tensor& a, std::vector<int> seg,
                                 std::int64_t num_segments);
/// out[s] = max over the segment (elementwise); empty segments yield 0.
[[nodiscard]] Tensor segment_max(const Tensor& a, SharedIndex seg,
                                 std::int64_t num_segments);
[[nodiscard]] Tensor segment_max(const Tensor& a, std::vector<int> seg,
                                 std::int64_t num_segments);

// ---- sparse -------------------------------------------------------------
/// COO sparse-dense matmul: out[dst[k]] += w[k] * x[src[k]] with
/// `out_rows` output rows. The normalized-adjacency product of GCNII.
[[nodiscard]] Tensor spmm(std::vector<int> src, std::vector<int> dst,
                          std::vector<float> w, const Tensor& x,
                          std::int64_t out_rows);

/// Destination-sorted CSR form of a fixed sparse matrix, built once and
/// reused across spmm_csr calls (GCNII runs one per layer per step).
/// Holds both the forward CSR (bucketed by output row) and its transpose
/// (bucketed by input row) so forward *and* backward are row-parallel
/// gathers with sequential memory traffic — no column-sliced scatter.
struct SpmmCsr {
  std::int64_t out_rows = 0;
  std::int64_t in_rows = 0;
  IndexVec row_off;  ///< [out_rows+1] edge offsets per output row
  IndexVec col;      ///< source row per edge (CSR order)
  std::shared_ptr<const std::vector<float>> w;  ///< weight per edge
  IndexVec t_row_off;  ///< transpose offsets [in_rows+1]
  IndexVec t_col;      ///< destination row per transposed edge
  std::shared_ptr<const std::vector<float>> t_w;
};
/// Buckets a COO triple list by destination (stable within a row), plus
/// the transpose. Edge accumulation order becomes CSR order — fixed per
/// plan, independent of the COO arrival order and of thread count.
[[nodiscard]] SpmmCsr build_spmm_csr(const std::vector<int>& src,
                                     const std::vector<int>& dst,
                                     const std::vector<float>& w,
                                     std::int64_t out_rows,
                                     std::int64_t in_rows);
/// out = A · x with A in the plan's CSR form.
[[nodiscard]] Tensor spmm_csr(const SpmmCsr& plan, const Tensor& x);

// ---- reductions / losses --------------------------------------------------
[[nodiscard]] Tensor sum_all(const Tensor& a);
[[nodiscard]] Tensor mean_all(const Tensor& a);
/// Mean squared error over all elements.
[[nodiscard]] Tensor mse_loss(const Tensor& pred, const Tensor& target);
/// MSE over a row subset: pred rows `rows` vs target (target has
/// rows.size() rows). The masked endpoint/fan-in losses of Eq. 4–6.
[[nodiscard]] Tensor mse_loss_rows(const Tensor& pred, SharedIndex rows,
                                   const Tensor& target);
[[nodiscard]] Tensor mse_loss_rows(const Tensor& pred, std::vector<int> rows,
                                   const Tensor& target);

/// Row-wise layer normalization with learnable gain/bias:
/// y = (x − mean_row)/√(var_row + eps) · gamma + beta; gamma/beta are
/// [1, D]. One of the "bag of tricks" for deeper GNNs the paper cites
/// (Chen et al. 2021); exposed for the GCNII baseline's normalized
/// variant.
[[nodiscard]] Tensor layer_norm(const Tensor& x, const Tensor& gamma,
                                const Tensor& beta, float eps = 1e-5f);

// ---- model-specific fused ops ---------------------------------------------
/// Softmax within consecutive groups of `group` columns (normalizes the
/// per-axis LUT interpolation coefficients).
[[nodiscard]] Tensor softmax_groups(const Tensor& a, std::int64_t group);
/// Kronecker-interpolated LUT read (paper §3.3.2): for G LUTs of size
/// 7×7 per row, with per-axis coefficient vectors a,b of size G·7:
///   out[e, g] = Σ_{i,j} a[e, g·7+i] · b[e, g·7+j] · lut[e, g·49+i·7+j].
[[nodiscard]] Tensor lut_kron_dot(const Tensor& a, const Tensor& b,
                                  const Tensor& lut, std::int64_t lut_dim);

}  // namespace tg::nn
