#pragma once
/// \file kernels.hpp
/// Runtime-dispatched SIMD kernels under ops.cpp (DESIGN.md §10). One
/// portable implementation and optional AVX2 / NEON backends share a
/// single numeric contract so every backend is bit-identical:
///
///  - Elementwise kernels (add, mul, scale, axpy, relu, adam_step, ...)
///    perform the same correctly-rounded float ops per element in the
///    same order; fused multiply-add is never used (the build pins
///    -ffp-contract=off so the compiler cannot introduce it either).
///  - `dot` is a *blocked reduction*: 8 striped accumulators over the
///    n&~7 prefix (lane l sums elements l, l+8, l+16, ...), combined as
///    ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), then the ragged tail is
///    added serially in index order. Every backend implements exactly
///    this tree, so SIMD vs portable results match bit for bit.
///  - `matmul_rows` computes, for each row r, out[r·m+j] =
///    Σ_kk a[r·k+kk]·b[kk·m+j] with kk ascending per output element (init
///    with kk = 0 as an assignment — callers never pre-zero; k == 0
///    writes zeros). Backends may tile rows × columns in registers:
///    tiling shares each weight load across the tile's rows and never
///    reorders any element's kk sum.
///  - `kron_dot_row` is the Kronecker LUT read per group g:
///    acc = 0; for each i ascending, skip when a_i == 0 (so ±0 skip and
///    NaN does not), else acc += a_i · (0 + Σ_j b_j·lut_ij, j ascending).
///    Backends may run the groups in SIMD lanes (the 8×7 serving shape)
///    with the skip as a compare-and-blend that leaves acc untouched.
///  - `softmax_groups_row` may likewise run groups in lanes. Every `exp`
///    returns `std::exp`'s bits: the portable and NEON backends call it,
///    and the AVX2 8×7 kernel runs a lane-parallel copy of glibc's expf
///    (kernels_avx2.cpp). Dispatch keeps that kernel only where a probe
///    matches this process's `std::exp` (`vector_exp_rejection`), else it
///    runs the portable softmax. The probe samples ~65k of the 1.1 billion
///    inputs in [−88, 0]; every input is proven only where
///    `KernelEquiv.VectorExpMatchesStdExpOnEverySoftmaxInput` has run
///    against the libm in use (done on glibc 2.36, x86-64).
///
/// Dispatch picks the widest backend the CPU supports at first use;
/// `set_force_portable(true)` pins the portable table (the equivalence
/// tests flip it to bit-compare backends on the same machine).

#include <cstddef>

namespace tg::nn::kern {

/// Per-step constants of the fused Adam update (bias corrections are
/// precomputed by the caller: bc1 = 1 − β1^t, bc2 = 1 − β2^t).
struct AdamConsts {
  float lr;
  float beta1;
  float beta2;
  float eps;
  float weight_decay;
  float clip_scale;
  float bc1;
  float bc2;
};

/// One SIMD backend. All pointers may alias only as documented per entry
/// (dst-style kernels accumulate in place; out-style kernels overwrite).
struct KernelTable {
  const char* name;
  /// out[i] = a[i] + b[i]
  void (*add)(float* out, const float* a, const float* b, std::size_t n);
  /// dst[i] += src[i]
  void (*add_acc)(float* dst, const float* src, std::size_t n);
  /// out[i] = a[i] * b[i]
  void (*mul)(float* out, const float* a, const float* b, std::size_t n);
  /// dst[i] += a[i] * b[i]
  void (*mul_acc)(float* dst, const float* a, const float* b, std::size_t n);
  /// out[i] = a[i] * s
  void (*scale)(float* out, const float* a, float s, std::size_t n);
  /// dst[i] += a * x[i]
  void (*axpy)(float* dst, float a, const float* x, std::size_t n);
  /// out[i] = max(a[i], 0)
  void (*relu)(float* out, const float* a, std::size_t n);
  /// out[i] = max(a[i] + b[i], 0) — the fused Linear+ReLU / residual path
  void (*add_relu)(float* out, const float* a, const float* b, std::size_t n);
  /// dst[i] += y[i] > 0 ? g[i] : 0 — backward of relu/add_relu given the
  /// forward output y
  void (*relu_mask_acc)(float* dst, const float* y, const float* g,
                        std::size_t n);
  /// Blocked-reduction dot product (contract in the file comment).
  float (*dot)(const float* a, const float* b, std::size_t n);
  /// out[r·m .. r·m+m) = Σ_kk a[r·k+kk] · b[kk·m .. kk·m+m) for r in
  /// [0, rows) (contract in the file comment); overwrites out, which must
  /// not alias a or b.
  void (*matmul_rows)(float* out, const float* a, const float* b,
                      std::size_t rows, std::size_t k, std::size_t m);
  /// One row of the Kronecker LUT read (contract in the file comment):
  /// out[g] for g in [0, groups), from coefficient rows a, b of groups·d
  /// floats each and a LUT row of groups·d² floats (lut_ij of group g at
  /// lut[g·d² + i·d + j]). Reads no float outside those ranges.
  void (*kron_dot_row)(float* out, const float* a, const float* b,
                       const float* lut, std::size_t groups, std::size_t d);
  /// One row of softmax over consecutive groups of `group` floats:
  /// mx = max (std::max, i ascending); y_i = exp(x_i − mx); denom = 0 +
  /// Σ y_i (i ascending); y_i /= denom. `cols` is a multiple of `group`;
  /// out may be in itself but must not otherwise overlap it. Backends may
  /// run the groups in SIMD lanes (the 8×7 LUT shape), and exp in lanes
  /// too, as long as each exp returns std::exp's bits (file comment).
  void (*softmax_groups_row)(float* out, const float* in, std::size_t cols,
                             std::size_t group);
  /// One row of dY·Bᵀ: out[kk] += dot(g, b + kk·m, m) for kk in [0, k).
  /// Each output element uses exactly the `dot` reduction tree; backends
  /// may block kk to share g loads, which never reorders a single dot.
  void (*matmul_nt_row)(float* out, const float* g, const float* b,
                        std::size_t k, std::size_t m);
  /// Aᵀ·dY panel accumulate: db[kk·stride + j] += Σ_i a[i·lda + kk] ·
  /// g[i·stride + j] for kk in [0, k), j in [0, width), i terms added in
  /// ascending order per element. `lda >= k` is A's row stride, so `a`
  /// may point at a column sub-panel (columns [kb, kb+k) of a wider A,
  /// passed as a + kb) and the call fills only the matching dB rows.
  /// Source rows are processed in blocks of four; for each kk, a block
  /// whose four a values are all exactly zero is skipped (identically in
  /// every backend), while zeros inside a live block are multiplied
  /// branch-free. Trailing rows (n mod 4) are per-row with the same
  /// exact-zero skip. Every decision is per kk, so splitting [0, k) into
  /// sub-panels never changes a dB element.
  void (*atb_acc)(float* db, const float* a, const float* g, std::size_t n,
                  std::size_t k, std::size_t lda, std::size_t stride,
                  std::size_t width);
  /// Fused Adam: for each i, g = grad·clip + wd·data;
  /// m = β1·m + (1−β1)·g; v = β2·v + ((1−β2)·g)·g;
  /// data −= (lr·(m/bc1)) / (sqrt(v/bc2) + eps).
  void (*adam_step)(float* data, const float* grad, float* m, float* v,
                    std::size_t n, const AdamConsts& c);
};

/// The dispatched table (resolved once; portable when forced).
[[nodiscard]] const KernelTable& active();
/// Name of the backend `active()` currently returns ("avx2", "neon",
/// "portable").
[[nodiscard]] const char* simd_name();
/// Test hook: true pins the portable table, false restores dispatch.
void set_force_portable(bool on);
/// nullptr when the dispatched AVX2 softmax runs the vector exp; otherwise
/// why the portable softmax (scalar std::exp) runs in its place (no AVX2
/// backend in the build, a CPU without AVX2 or FMA, or the first input
/// where the vector exp and this process's std::exp differ). Decided
/// once, at first dispatch, by a probe: a strided sweep of [−88, 0] plus
/// −0x1.f8cbb2p+5.
[[nodiscard]] const char* vector_exp_rejection();

namespace detail {
/// Defined in kernels_avx2.cpp; nullptr when the build has no AVX2 TU.
/// Its 8×7 softmax runs the vector exp (AVX2 + FMA): dispatch swaps in the
/// portable softmax unless `vector_exp_rejection()` is nullptr.
[[nodiscard]] const KernelTable* avx2_table();
/// out[i] = exp(in[i]) for i in [0, n) through the vector exp (AVX2 +
/// FMA); may only run on a CPU that has both.
using ExpN = void (*)(float* out, const float* in, std::size_t n);
/// Defined in kernels_avx2.cpp; nullptr when the build has no AVX2 TU.
[[nodiscard]] ExpN avx2_exp_n();
/// The portable table, for SIMD backends that fall back to it on shapes
/// they do not specialize.
[[nodiscard]] const KernelTable* portable_table();
}  // namespace detail

// ---- convenience wrappers ------------------------------------------------
inline void add(float* out, const float* a, const float* b, std::size_t n) {
  active().add(out, a, b, n);
}
inline void add_acc(float* dst, const float* src, std::size_t n) {
  active().add_acc(dst, src, n);
}
inline void mul(float* out, const float* a, const float* b, std::size_t n) {
  active().mul(out, a, b, n);
}
inline void mul_acc(float* dst, const float* a, const float* b,
                    std::size_t n) {
  active().mul_acc(dst, a, b, n);
}
inline void scale(float* out, const float* a, float s, std::size_t n) {
  active().scale(out, a, s, n);
}
inline void axpy(float* dst, float a, const float* x, std::size_t n) {
  active().axpy(dst, a, x, n);
}
inline void relu(float* out, const float* a, std::size_t n) {
  active().relu(out, a, n);
}
inline void add_relu(float* out, const float* a, const float* b,
                     std::size_t n) {
  active().add_relu(out, a, b, n);
}
inline void relu_mask_acc(float* dst, const float* y, const float* g,
                          std::size_t n) {
  active().relu_mask_acc(dst, y, g, n);
}
[[nodiscard]] inline float dot(const float* a, const float* b,
                               std::size_t n) {
  return active().dot(a, b, n);
}
inline void matmul_rows(float* out, const float* a, const float* b,
                        std::size_t rows, std::size_t k, std::size_t m) {
  active().matmul_rows(out, a, b, rows, k, m);
}
inline void kron_dot_row(float* out, const float* a, const float* b,
                         const float* lut, std::size_t groups,
                         std::size_t d) {
  active().kron_dot_row(out, a, b, lut, groups, d);
}
inline void softmax_groups_row(float* out, const float* in, std::size_t cols,
                               std::size_t group) {
  active().softmax_groups_row(out, in, cols, group);
}
inline void matmul_nt_row(float* out, const float* g, const float* b,
                          std::size_t k, std::size_t m) {
  active().matmul_nt_row(out, g, b, k, m);
}
inline void atb_acc(float* db, const float* a, const float* g, std::size_t n,
                    std::size_t k, std::size_t lda, std::size_t stride,
                    std::size_t width) {
  active().atb_acc(db, a, g, n, k, lda, stride, width);
}
inline void adam_step(float* data, const float* grad, float* m, float* v,
                      std::size_t n, const AdamConsts& c) {
  active().adam_step(data, grad, m, v, n, c);
}

}  // namespace tg::nn::kern
