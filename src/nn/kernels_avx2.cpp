/// \file kernels_avx2.cpp
/// AVX2 backend, compiled with -mavx2 on x86-64 only (CMake gates the
/// flag). Mirrors the portable loops in kernels.cpp operation for
/// operation: unaligned loads, mul-then-add (never FMA — the contract
/// requires two roundings), and the 8-lane blocked dot reduction. The
/// dispatcher in kernels.cpp only selects this table after
/// __builtin_cpu_supports("avx2") confirms the ISA at runtime.

#include "nn/kernels.hpp"

#if defined(TG_HAVE_AVX2_TU)

#include <immintrin.h>

#include <cmath>

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
    relu,   add_relu,     relu_mask_acc, dot, matmul_row,
    matmul_nt_row, atb_acc, adam_step,
};

}  // namespace avx2

}  // namespace

namespace detail {
const KernelTable* avx2_table() { return &avx2::kTable; }
}  // namespace detail

}  // namespace tg::nn::kern

#else  // !TG_HAVE_AVX2_TU

namespace tg::nn::kern::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace tg::nn::kern::detail

#endif
