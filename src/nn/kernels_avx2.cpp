/// \file kernels_avx2.cpp
/// AVX2 backend, compiled with -mavx2 on x86-64 only (CMake gates the
/// flag). Mirrors the portable loops in kernels.cpp operation for
/// operation: unaligned loads, mul-then-add (never FMA — the contract
/// requires two roundings), and the 8-lane blocked dot reduction. The
/// dispatcher in kernels.cpp only selects this table after
/// __builtin_cpu_supports("avx2") confirms the ISA at runtime.
///
/// One exception to "never FMA": the lane-parallel exp under the 8×7
/// softmax (`exp_lanes`) uses explicit FMA, because it reproduces glibc's
/// own FMA build of expf operation for operation, so each lane returns
/// std::exp's bits. Only those functions (and the softmax around them)
/// carry the "fma" target. The dispatcher keeps this table's softmax only
/// when the CPU reports FMA and a probe matches std::exp bit for bit;
/// otherwise it runs the portable softmax (kernels.cpp).
/// `KernelEquiv.VectorExpMatchesStdExpOnEverySoftmaxInput` checks every
/// softmax input.

#include "nn/kernels.hpp"

#if defined(TG_HAVE_AVX2_TU)

#include <immintrin.h>

#include <cmath>
#include <cstdint>

namespace tg::nn::kern {

namespace {

namespace avx2 {

void add(float* out, const float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void add_acc(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void mul(float* out, const float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void mul_acc(float* dst, const float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < n; ++i) dst[i] += a[i] * b[i];
}

void scale(float* out, const float* a, float s, std::size_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), sv));
  }
  for (; i < n; ++i) out[i] = a[i] * s;
}

void axpy(float* dst, float a, const float* x, std::size_t n) {
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(av, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < n; ++i) dst[i] += a * x[i];
}

void relu(float* out, const float* a, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
  }
  for (; i < n; ++i) out[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void add_relu(float* out, const float* a, const float* b, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 sum =
        _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(out + i, _mm256_max_ps(sum, zero));
  }
  for (; i < n; ++i) {
    const float v = a[i] + b[i];
    out[i] = v > 0.0f ? v : 0.0f;
  }
}

void relu_mask_acc(float* dst, const float* y, const float* g,
                   std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask =
        _mm256_cmp_ps(_mm256_loadu_ps(y + i), zero, _CMP_GT_OQ);
    const __m256 gm = _mm256_and_ps(_mm256_loadu_ps(g + i), mask);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), gm));
  }
  for (; i < n; ++i) {
    if (y[i] > 0.0f) dst[i] += g[i];
  }
}

float dot(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();  // 8 striped lanes of the contract
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  alignas(32) float lane[8];
  _mm256_store_ps(lane, acc);
  float total = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  for (std::size_t i = n8; i < n; ++i) total += a[i] * b[i];
  return total;
}

void matmul_row(float* out, const float* a, const float* b, std::size_t k,
                std::size_t m) {
  if (k == 0) {
    for (std::size_t j = 0; j < m; ++j) out[j] = 0.0f;
    return;
  }
  std::size_t j = 0;
  // 32-wide register tile: per output element the kk accumulation order
  // is unchanged, so the tiling is invisible to the contract.
  for (; j + 32 <= m; j += 32) {
    __m256 av = _mm256_set1_ps(a[0]);
    const float* br = b + j;
    __m256 acc0 = _mm256_mul_ps(av, _mm256_loadu_ps(br));
    __m256 acc1 = _mm256_mul_ps(av, _mm256_loadu_ps(br + 8));
    __m256 acc2 = _mm256_mul_ps(av, _mm256_loadu_ps(br + 16));
    __m256 acc3 = _mm256_mul_ps(av, _mm256_loadu_ps(br + 24));
    for (std::size_t kk = 1; kk < k; ++kk) {
      av = _mm256_set1_ps(a[kk]);
      br = b + kk * m + j;
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(br)));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(br + 8)));
      acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(av, _mm256_loadu_ps(br + 16)));
      acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(av, _mm256_loadu_ps(br + 24)));
    }
    _mm256_storeu_ps(out + j, acc0);
    _mm256_storeu_ps(out + j + 8, acc1);
    _mm256_storeu_ps(out + j + 16, acc2);
    _mm256_storeu_ps(out + j + 24, acc3);
  }
  for (; j + 8 <= m; j += 8) {
    __m256 av = _mm256_set1_ps(a[0]);
    __m256 acc = _mm256_mul_ps(av, _mm256_loadu_ps(b + j));
    for (std::size_t kk = 1; kk < k; ++kk) {
      av = _mm256_set1_ps(a[kk]);
      acc = _mm256_add_ps(acc,
                          _mm256_mul_ps(av, _mm256_loadu_ps(b + kk * m + j)));
    }
    _mm256_storeu_ps(out + j, acc);
  }
  for (; j < m; ++j) {
    float acc = a[0] * b[j];
    for (std::size_t kk = 1; kk < k; ++kk) acc += a[kk] * b[kk * m + j];
    out[j] = acc;
  }
}

// Register tiles of matmul_rows at column j. Each kk loads the tile's
// weight vectors once for all its rows; every element is still assigned
// a[0]·b[j] and then accumulates kk in ascending order, exactly as
// matmul_row does. (Named accumulators, not arrays, so they stay in
// registers.)

inline __m256 mul_add(__m256 acc, const float* a, __m256 bv) {
  return _mm256_add_ps(acc, _mm256_mul_ps(_mm256_broadcast_ss(a), bv));
}

inline __m256 mul_first(const float* a, __m256 bv) {
  return _mm256_mul_ps(_mm256_broadcast_ss(a), bv);
}

/// 4 rows × 16 columns: 8 accumulators.
void matmul_tile4x16(float* out, const float* a, const float* b,
                     std::size_t k, std::size_t m, std::size_t j) {
  const float* a1 = a + k;
  const float* a2 = a1 + k;
  const float* a3 = a2 + k;
  __m256 b0 = _mm256_loadu_ps(b + j);
  __m256 b1 = _mm256_loadu_ps(b + j + 8);
  __m256 c00 = mul_first(a, b0), c01 = mul_first(a, b1);
  __m256 c10 = mul_first(a1, b0), c11 = mul_first(a1, b1);
  __m256 c20 = mul_first(a2, b0), c21 = mul_first(a2, b1);
  __m256 c30 = mul_first(a3, b0), c31 = mul_first(a3, b1);
  for (std::size_t kk = 1; kk < k; ++kk) {
    const float* br = b + kk * m + j;
    b0 = _mm256_loadu_ps(br);
    b1 = _mm256_loadu_ps(br + 8);
    c00 = mul_add(c00, a + kk, b0);
    c01 = mul_add(c01, a + kk, b1);
    c10 = mul_add(c10, a1 + kk, b0);
    c11 = mul_add(c11, a1 + kk, b1);
    c20 = mul_add(c20, a2 + kk, b0);
    c21 = mul_add(c21, a2 + kk, b1);
    c30 = mul_add(c30, a3 + kk, b0);
    c31 = mul_add(c31, a3 + kk, b1);
  }
  float* o = out + j;
  _mm256_storeu_ps(o, c00);
  _mm256_storeu_ps(o + 8, c01);
  _mm256_storeu_ps(o + m, c10);
  _mm256_storeu_ps(o + m + 8, c11);
  _mm256_storeu_ps(o + 2 * m, c20);
  _mm256_storeu_ps(o + 2 * m + 8, c21);
  _mm256_storeu_ps(o + 3 * m, c30);
  _mm256_storeu_ps(o + 3 * m + 8, c31);
}

/// 4 rows × 8 columns, then (kEight) 4 more rows: 4 or 8 accumulators.
template <bool kEight>
void matmul_tile8(float* out, const float* a, const float* b, std::size_t k,
                  std::size_t m, std::size_t j) {
  const float* ar[8] = {};
  for (std::size_t r = 0; r < (kEight ? 8 : 4); ++r) ar[r] = a + r * k;
  __m256 bv = _mm256_loadu_ps(b + j);
  __m256 c0 = mul_first(ar[0], bv), c1 = mul_first(ar[1], bv);
  __m256 c2 = mul_first(ar[2], bv), c3 = mul_first(ar[3], bv);
  __m256 c4 = bv, c5 = bv, c6 = bv, c7 = bv;
  if (kEight) {
    c4 = mul_first(ar[4], bv);
    c5 = mul_first(ar[5], bv);
    c6 = mul_first(ar[6], bv);
    c7 = mul_first(ar[7], bv);
  }
  for (std::size_t kk = 1; kk < k; ++kk) {
    bv = _mm256_loadu_ps(b + kk * m + j);
    c0 = mul_add(c0, ar[0] + kk, bv);
    c1 = mul_add(c1, ar[1] + kk, bv);
    c2 = mul_add(c2, ar[2] + kk, bv);
    c3 = mul_add(c3, ar[3] + kk, bv);
    if (kEight) {
      c4 = mul_add(c4, ar[4] + kk, bv);
      c5 = mul_add(c5, ar[5] + kk, bv);
      c6 = mul_add(c6, ar[6] + kk, bv);
      c7 = mul_add(c7, ar[7] + kk, bv);
    }
  }
  float* o = out + j;
  _mm256_storeu_ps(o, c0);
  _mm256_storeu_ps(o + m, c1);
  _mm256_storeu_ps(o + 2 * m, c2);
  _mm256_storeu_ps(o + 3 * m, c3);
  if (kEight) {
    _mm256_storeu_ps(o + 4 * m, c4);
    _mm256_storeu_ps(o + 5 * m, c5);
    _mm256_storeu_ps(o + 6 * m, c6);
    _mm256_storeu_ps(o + 7 * m, c7);
  }
}

/// One block of kRows (4 or 8) rows across all m columns: 4×16 tiles (8
/// accumulators) over the 16-column panels, then one kRows × 8 tile on an
/// 8-column tail, then a scalar tail. The block's rows of a and out stay
/// in cache across its column panels, so a and out are streamed once.
template <std::size_t kRows>
void matmul_block(float* out, const float* a, const float* b, std::size_t k,
                  std::size_t m) {
  std::size_t j = 0;
  for (; j + 16 <= m; j += 16) {
    for (std::size_t r = 0; r < kRows; r += 4) {
      matmul_tile4x16(out + r * m, a + r * k, b, k, m, j);
    }
  }
  for (; j + 8 <= m; j += 8) matmul_tile8<kRows == 8>(out, a, b, k, m, j);
  for (; j < m; ++j) {
    for (std::size_t r = 0; r < kRows; ++r) {
      const float* ar = a + r * k;
      float acc = ar[0] * b[j];
      for (std::size_t kk = 1; kk < k; ++kk) acc += ar[kk] * b[kk * m + j];
      out[r * m + j] = acc;
    }
  }
}

void matmul_rows(float* out, const float* a, const float* b,
                 std::size_t rows, std::size_t k, std::size_t m) {
  // Row blocks on the outside, column panels inside: each weight vector
  // is loaded once per tile and shared by its rows, while a and out are
  // each read or written once. Blocks of eight rows keep eight
  // independent add chains in flight even at m = 8; then one block of
  // four; leftover rows (rows mod 4) go one at a time.
  if (k == 0) {
    for (std::size_t i = 0; i < rows * m; ++i) out[i] = 0.0f;
    return;
  }
  std::size_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    matmul_block<8>(out + r * m, a + r * k, b, k, m);
  }
  if (r + 4 <= rows) {
    matmul_block<4>(out + r * m, a + r * k, b, k, m);
    r += 4;
  }
  for (; r < rows; ++r) matmul_row(out + r * m, a + r * k, b, k, m);
}

/// In-register 8×8 transpose: col[c] lane g = p[g·ld + c], from 128-bit
/// row halves paired across rows g and g + 4. Row 7's upper half comes in
/// as `hi7` so a caller can mask a row that ends before its eighth float.
inline void transpose8(const float* p, std::size_t ld, __m128 hi7,
                       __m256 col[8]) {
  const auto pair = [](__m128 lo, __m128 hi) {
    return _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
  };
  const auto row = [&](std::size_t g, std::size_t half) {
    return _mm_loadu_ps(p + g * ld + 4 * half);
  };
  for (std::size_t half = 0; half < 2; ++half) {
    // r[q] = [row q | row q + 4] (this half's four columns each).
    const __m256 r0 = pair(row(0, half), row(4, half));
    const __m256 r1 = pair(row(1, half), row(5, half));
    const __m256 r2 = pair(row(2, half), row(6, half));
    const __m256 r3 = pair(row(3, half), half == 0 ? row(7, 0) : hi7);
    const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    __m256* c = col + 4 * half;
    c[0] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    c[1] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    c[2] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    c[3] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  }
}

void kron_dot_row(float* out, const float* a, const float* b,
                  const float* lut, std::size_t groups, std::size_t d) {
  constexpr std::size_t kD = 7;
  constexpr std::size_t kL = kD * kD;
  if (groups != 8 || d != kD) {
    detail::portable_table()->kron_dot_row(out, a, b, lut, groups, d);
    return;
  }
  // One lane per LUT group. av[i] / bv[j] lane g = a / b[g·7 + i]; row 7
  // of each ends at its seventh float, so its eighth is masked out.
  const __m128i first3 = _mm_setr_epi32(-1, -1, -1, 0);
  __m256 av[8], bv[8];
  transpose8(a, kD, _mm_maskload_ps(a + 7 * kD + 4, first3), av);
  transpose8(b, kD, _mm_maskload_ps(b + 7 * kD + 4, first3), bv);
  // lt[c·8 + g] = lut[g·49 + c]: six 8×8 transposes cover c < 48.
  alignas(32) float lt[kL * 8];
  for (std::size_t c = 0; c + 8 <= kL; c += 8) {
    __m256 col[8];
    transpose8(lut + c, kL, _mm_loadu_ps(lut + 7 * kL + c + 4), col);
    for (std::size_t v = 0; v < 8; ++v) {
      _mm256_store_ps(lt + (c + v) * 8, col[v]);
    }
  }
  _mm256_store_ps(lt + (kL - 1) * 8,
                  _mm256_setr_ps(lut[kL - 1], lut[2 * kL - 1],
                                 lut[3 * kL - 1], lut[4 * kL - 1],
                                 lut[5 * kL - 1], lut[6 * kL - 1],
                                 lut[7 * kL - 1], lut[8 * kL - 1]));
  // Each lane runs the scalar loop's operation sequence; a lane whose a_i
  // compares equal to zero (±0) keeps its acc, a NaN a_i does not skip.
  const __m256 zero = _mm256_setzero_ps();
  __m256 acc = zero;
  for (std::size_t i = 0; i < kD; ++i) {
    __m256 inner = zero;
    for (std::size_t j = 0; j < kD; ++j) {
      inner = _mm256_add_ps(
          inner, _mm256_mul_ps(bv[j], _mm256_load_ps(lt + (i * kD + j) * 8)));
    }
    const __m256 live = _mm256_cmp_ps(av[i], zero, _CMP_NEQ_UQ);
    acc = _mm256_blendv_ps(
        acc, _mm256_add_ps(acc, _mm256_mul_ps(av[i], inner)), live);
  }
  _mm256_storeu_ps(out, acc);
}

// ---- lane-parallel exp --------------------------------------------------
// glibc 2.36's expf (sysdeps/ieee754/flt-32/e_expf.c) as its FMA build
// (e_expf-fma.c, the variant glibc's ifunc selects on AVX2+FMA CPUs)
// evaluates it, in double lanes. With k = round(x·32/ln2) and r the
// remainder, exp(x) = 2^(k/32) · 2^(r/32) ≈ s · (C0·r³ + C1·r² + C2·r + 1).
// The compiler contracts glibc's `r = z − kd` (z = InvLn2N·xd) and the
// polynomial's mul+adds into FMAs; the lanes do the same, explicitly.
// Without the contraction in r the recipe misses one input in [−88, 0]
// (−0x1.f8cbb2p+5), and a correctly rounded exp misses 97,052: libm is not
// correctly rounded, so its recipe is mirrored rather than replaced.

/// T[i] = bits(2^(i/32) rounded to double) − (i << 47), so that
/// asdouble(T[ki & 31] + (ki << 47)) = 2^(k/32) for ki = bits(k + Shift).
alignas(32) constexpr std::uint64_t kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kExpN = 32.0;
constexpr double kInvLn2N = 0x1.71547652b82fep+0 * kExpN;
constexpr double kExpShift = 0x1.8p52;
constexpr double kExpC0 = 0x1.c6af84b912394p-5 / kExpN / kExpN / kExpN;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-3 / kExpN / kExpN;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-1 / kExpN;

/// expf's main path on four floats, widened to double lanes.
__attribute__((target("fma"))) inline __m128 exp_main4(__m128 x) {
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d inv_ln2n = _mm256_set1_pd(kInvLn2N);
  const __m256d shift = _mm256_set1_pd(kExpShift);
  const __m256d z = _mm256_mul_pd(inv_ln2n, xd);
  __m256d kd = _mm256_add_pd(z, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  const __m256d r = _mm256_fmsub_pd(inv_ln2n, xd, kd);
  const __m256i t = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(kExp2Table),
      _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
  const __m256d s =
      _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64(ki, 47)));
  const __m256d p = _mm256_fmadd_pd(_mm256_set1_pd(kExpC0), r,
                                    _mm256_set1_pd(kExpC1));
  const __m256d q = _mm256_fmadd_pd(_mm256_set1_pd(kExpC2), r,
                                    _mm256_set1_pd(1.0));
  const __m256d y = _mm256_fmadd_pd(p, _mm256_mul_pd(r, r), q);
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

/// std::exp on eight lanes. Lanes in [−88, 0] take expf's main path;
/// any other lane (NaN included) calls std::exp itself, so libm's special
/// cases are never re-implemented.
__attribute__((target("fma"))) inline __m256 exp_lanes(__m256 x) {
  const __m256 y = _mm256_insertf128_ps(
      _mm256_castps128_ps256(exp_main4(_mm256_castps256_ps128(x))),
      exp_main4(_mm256_extractf128_ps(x, 1)), 1);
  const __m256 in_range = _mm256_and_ps(
      _mm256_cmp_ps(x, _mm256_set1_ps(-88.0f), _CMP_GE_OQ),
      _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_LE_OQ));
  const int main_lanes = _mm256_movemask_ps(in_range);
  if (main_lanes == 0xFF) [[likely]] return y;
  alignas(32) float xs[8], ys[8];
  _mm256_store_ps(xs, x);
  _mm256_store_ps(ys, y);
  for (int l = 0; l < 8; ++l) {
    if ((main_lanes >> l & 1) == 0) ys[l] = std::exp(xs[l]);
  }
  return _mm256_load_ps(ys);
}

/// out[i] = exp_lanes(in[i]) for i in [0, n); a ragged tail runs as one
/// zero-padded block of eight.
__attribute__((target("fma"))) void exp_n(float* out, const float* in,
                                          std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, exp_lanes(_mm256_loadu_ps(in + i)));
  }
  if (i == n) return;
  alignas(32) float t[8] = {};
  for (std::size_t j = i; j < n; ++j) t[j - i] = in[j];
  _mm256_store_ps(t, exp_lanes(_mm256_load_ps(t)));
  for (std::size_t j = i; j < n; ++j) out[j] = t[j - i];
}

/// The 8×7 softmax: one lane per group, with the exp in lanes too.
__attribute__((target("fma"))) void softmax_groups_row(
    float* out, const float* in, std::size_t cols, std::size_t group) {
  constexpr std::size_t kG = 7;
  if (cols != 8 * kG || group != kG) {
    detail::portable_table()->softmax_groups_row(out, in, cols, group);
    return;
  }
  // One lane per group: x[i] lane g = in[g·7 + i] (row 7's eighth float is
  // past the row, so it is masked out).
  const __m128i first3 = _mm_setr_epi32(-1, -1, -1, 0);
  __m256 x[8];
  transpose8(in, kG, _mm_maskload_ps(in + 7 * kG + 4, first3), x);
  // std::max(mx, x_i) keeps mx unless mx < x_i: max_ps(x_i, mx) exactly.
  __m256 mx = x[0];
  for (std::size_t i = 1; i < kG; ++i) mx = _mm256_max_ps(x[i], mx);
  __m256 denom = _mm256_setzero_ps();
  __m256 y[8];
  for (std::size_t i = 0; i < kG; ++i) {
    y[i] = exp_lanes(_mm256_sub_ps(x[i], mx));
    denom = _mm256_add_ps(denom, y[i]);
  }
  for (std::size_t i = 0; i < kG; ++i) y[i] = _mm256_div_ps(y[i], denom);
  y[kG] = denom;  // any value: lands past each group, overwritten below
  // Transpose back; group g's 8-float store spills one float into group
  // g + 1, which that group's store then overwrites. The last is masked.
  alignas(32) float t[64];
  for (std::size_t i = 0; i < 8; ++i) _mm256_store_ps(t + i * 8, y[i]);
  __m256 rows[8];
  transpose8(t, 8, _mm_load_ps(t + 7 * 8 + 4), rows);
  for (std::size_t g = 0; g < 7; ++g) _mm256_storeu_ps(out + g * kG, rows[g]);
  const __m256i first7 = _mm256_setr_epi32(-1, -1, -1, -1, -1, -1, -1, 0);
  _mm256_maskstore_ps(out + 7 * kG, first7, rows[7]);
}

void matmul_nt_row(float* out, const float* g, const float* b, std::size_t k,
                   std::size_t m) {
  // kk blocked by 4: one g load feeds four independent accumulator chains
  // (hides add latency); each output element still reduces with exactly
  // the 8-lane dot tree, so this matches k separate dot() calls bit for
  // bit.
  const std::size_t m8 = m & ~std::size_t{7};
  std::size_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    const float* b0 = b + kk * m;
    const float* b1 = b0 + m;
    const float* b2 = b1 + m;
    const float* b3 = b2 + m;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    for (std::size_t i = 0; i < m8; i += 8) {
      const __m256 gv = _mm256_loadu_ps(g + i);
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(gv, _mm256_loadu_ps(b0 + i)));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(gv, _mm256_loadu_ps(b1 + i)));
      acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(gv, _mm256_loadu_ps(b2 + i)));
      acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(gv, _mm256_loadu_ps(b3 + i)));
    }
    // In-register realization of the contract's reduction tree: hadd
    // produces adjacent-pair sums per 128-bit lane, so two hadd levels
    // yield ((l0+l1)+(l2+l3)) and ((l4+l5)+(l6+l7)) for all four
    // accumulators at once, and the final 128-bit add combines the
    // halves — the same float additions in the same association as the
    // scalar tree.
    const __m256 h01 = _mm256_hadd_ps(acc0, acc1);
    const __m256 h23 = _mm256_hadd_ps(acc2, acc3);
    const __m256 h = _mm256_hadd_ps(h01, h23);
    const __m128 quad = _mm_add_ps(_mm256_castps256_ps128(h),
                                   _mm256_extractf128_ps(h, 1));
    alignas(16) float t[4];
    _mm_store_ps(t, quad);
    for (std::size_t i = m8; i < m; ++i) {
      t[0] += g[i] * b0[i];
      t[1] += g[i] * b1[i];
      t[2] += g[i] * b2[i];
      t[3] += g[i] * b3[i];
    }
    out[kk] += t[0];
    out[kk + 1] += t[1];
    out[kk + 2] += t[2];
    out[kk + 3] += t[3];
  }
  for (; kk < k; ++kk) out[kk] += dot(g, b + kk * m, m);
}

void atb_acc(float* db, const float* a, const float* g, std::size_t n,
             std::size_t k, std::size_t lda, std::size_t stride,
             std::size_t width) {
  // i blocked by 4: one db tile load/store serves four source rows. Each
  // db element still receives its contributions in ascending-i order with
  // exact zeros skipped, so the result matches portable bit for bit.
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* a0 = a + i * lda;
    const float* a1 = a0 + lda;
    const float* a2 = a1 + lda;
    const float* a3 = a2 + lda;
    const float* g0 = g + i * stride;
    const float* g1 = g0 + stride;
    const float* g2 = g1 + stride;
    const float* g3 = g2 + stride;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av0 = a0[kk], av1 = a1[kk], av2 = a2[kk], av3 = a3[kk];
      if (av0 == 0.0f && av1 == 0.0f && av2 == 0.0f && av3 == 0.0f) continue;
      float* drow = db + kk * stride;
      const __m256 v0 = _mm256_set1_ps(av0);
      const __m256 v1 = _mm256_set1_ps(av1);
      const __m256 v2 = _mm256_set1_ps(av2);
      const __m256 v3 = _mm256_set1_ps(av3);
      std::size_t j = 0;
      for (; j + 8 <= width; j += 8) {
        __m256 acc = _mm256_loadu_ps(drow + j);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(v0, _mm256_loadu_ps(g0 + j)));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(v1, _mm256_loadu_ps(g1 + j)));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(v2, _mm256_loadu_ps(g2 + j)));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(v3, _mm256_loadu_ps(g3 + j)));
        _mm256_storeu_ps(drow + j, acc);
      }
      for (; j < width; ++j) {
        float t = drow[j];
        t += av0 * g0[j];
        t += av1 * g1[j];
        t += av2 * g2[j];
        t += av3 * g3[j];
        drow[j] = t;
      }
    }
  }
  for (; i < n; ++i) {
    const float* arow = a + i * lda;
    const float* grow = g + i * stride;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      axpy(db + kk * stride, av, grow, width);
    }
  }
}

void adam_step(float* data, const float* grad, float* m, float* v,
               std::size_t n, const AdamConsts& c) {
  const __m256 clip = _mm256_set1_ps(c.clip_scale);
  const __m256 wd = _mm256_set1_ps(c.weight_decay);
  const __m256 b1 = _mm256_set1_ps(c.beta1);
  const __m256 one_minus_b1 = _mm256_set1_ps(1.0f - c.beta1);
  const __m256 b2 = _mm256_set1_ps(c.beta2);
  const __m256 one_minus_b2 = _mm256_set1_ps(1.0f - c.beta2);
  const __m256 bc1 = _mm256_set1_ps(c.bc1);
  const __m256 bc2 = _mm256_set1_ps(c.bc2);
  const __m256 lr = _mm256_set1_ps(c.lr);
  const __m256 eps = _mm256_set1_ps(c.eps);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_loadu_ps(data + i);
    const __m256 g = _mm256_add_ps(
        _mm256_mul_ps(_mm256_loadu_ps(grad + i), clip), _mm256_mul_ps(wd, d));
    const __m256 mv = _mm256_add_ps(
        _mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
        _mm256_mul_ps(one_minus_b1, g));
    const __m256 vv = _mm256_add_ps(
        _mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
        _mm256_mul_ps(_mm256_mul_ps(one_minus_b2, g), g));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    const __m256 mhat = _mm256_div_ps(mv, bc1);
    const __m256 vhat = _mm256_div_ps(vv, bc2);
    const __m256 upd = _mm256_div_ps(
        _mm256_mul_ps(lr, mhat), _mm256_add_ps(_mm256_sqrt_ps(vhat), eps));
    _mm256_storeu_ps(data + i, _mm256_sub_ps(d, upd));
  }
  for (; i < n; ++i) {
    const float g = grad[i] * c.clip_scale + c.weight_decay * data[i];
    m[i] = c.beta1 * m[i] + (1.0f - c.beta1) * g;
    v[i] = c.beta2 * v[i] + ((1.0f - c.beta2) * g) * g;
    const float mhat = m[i] / c.bc1;
    const float vhat = v[i] / c.bc2;
    data[i] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
}

constexpr KernelTable kTable = {
    "avx2", add, add_acc, mul,        mul_acc,    scale, axpy,
    relu,   add_relu,     relu_mask_acc, dot,
    matmul_rows, kron_dot_row, softmax_groups_row, matmul_nt_row, atb_acc,
    adam_step,
};

}  // namespace avx2

}  // namespace

namespace detail {
const KernelTable* avx2_table() { return &avx2::kTable; }
ExpN avx2_exp_n() { return avx2::exp_n; }
}  // namespace detail

}  // namespace tg::nn::kern

#else  // !TG_HAVE_AVX2_TU

namespace tg::nn::kern::detail {
const KernelTable* avx2_table() { return nullptr; }
ExpN avx2_exp_n() { return nullptr; }
}  // namespace tg::nn::kern::detail

#endif
