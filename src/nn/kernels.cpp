#include "nn/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace tg::nn::kern {

namespace {

// ---- portable backend ----------------------------------------------------
// The reference implementation of the numeric contract. The SIMD backends
// below mirror these loops operation for operation; keep them in sync.

namespace portable {

void add(float* out, const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void add_acc(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void mul(float* out, const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void mul_acc(float* dst, const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += a[i] * b[i];
}

void scale(float* out, const float* a, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * s;
}

void axpy(float* dst, float a, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += a * x[i];
}

void relu(float* out, const float* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void add_relu(float* out, const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float v = a[i] + b[i];
    out[i] = v > 0.0f ? v : 0.0f;
  }
}

void relu_mask_acc(float* dst, const float* y, const float* g,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (y[i] > 0.0f) dst[i] += g[i];
  }
}

float dot(const float* a, const float* b, std::size_t n) {
  // Blocked reduction contract (kernels.hpp): 8 striped lanes, pairwise
  // combine, serial tail.
  float lane[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) lane[l] += a[i + l] * b[i + l];
  }
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
  for (std::size_t j = 0; j < m; ++j) out[j] = a[0] * b[j];
  for (std::size_t kk = 1; kk < k; ++kk) {
    const float av = a[kk];
    const float* brow = b + kk * m;
    for (std::size_t j = 0; j < m; ++j) out[j] += av * brow[j];
  }
}

void matmul_rows(float* out, const float* a, const float* b,
                 std::size_t rows, std::size_t k, std::size_t m) {
  for (std::size_t r = 0; r < rows; ++r) {
    matmul_row(out + r * m, a + r * k, b, k, m);
  }
}

void kron_dot_row(float* out, const float* a, const float* b,
                  const float* lut, std::size_t groups, std::size_t d) {
  for (std::size_t g = 0; g < groups; ++g) {
    const float* av = a + g * d;
    const float* bv = b + g * d;
    const float* lv = lut + g * d * d;
    float acc = 0.0f;
    for (std::size_t i = 0; i < d; ++i) {
      const float ai = av[i];
      if (ai == 0.0f) continue;
      const float* lrow = lv + i * d;
      float inner = 0.0f;
      for (std::size_t j = 0; j < d; ++j) inner += bv[j] * lrow[j];
      acc += ai * inner;
    }
    out[g] = acc;
  }
}

void softmax_groups_row(float* out, const float* in, std::size_t cols,
                        std::size_t group) {
  for (std::size_t g0 = 0; g0 < cols; g0 += group) {
    const float* x = in + g0;
    float* y = out + g0;
    float mx = x[0];
    for (std::size_t i = 1; i < group; ++i) mx = std::max(mx, x[i]);
    float denom = 0.0f;
    for (std::size_t i = 0; i < group; ++i) {
      y[i] = std::exp(x[i] - mx);
      denom += y[i];
    }
    for (std::size_t i = 0; i < group; ++i) y[i] /= denom;
  }
}

void matmul_nt_row(float* out, const float* g, const float* b, std::size_t k,
                   std::size_t m) {
  for (std::size_t kk = 0; kk < k; ++kk) out[kk] += dot(g, b + kk * m, m);
}

void atb_acc(float* db, const float* a, const float* g, std::size_t n,
             std::size_t k, std::size_t lda, std::size_t stride,
             std::size_t width) {
  // i blocked by 4: each db element is loaded once and receives its four
  // contributions in ascending-i order before the store, exactly as the
  // unblocked loop would.
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
      for (std::size_t j = 0; j < width; ++j) {
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
      float* drow = db + kk * stride;
      for (std::size_t j = 0; j < width; ++j) drow[j] += av * grow[j];
    }
  }
}

void adam_step(float* data, const float* grad, float* m, float* v,
               std::size_t n, const AdamConsts& c) {
  for (std::size_t i = 0; i < n; ++i) {
    const float g = grad[i] * c.clip_scale + c.weight_decay * data[i];
    m[i] = c.beta1 * m[i] + (1.0f - c.beta1) * g;
    v[i] = c.beta2 * v[i] + ((1.0f - c.beta2) * g) * g;
    const float mhat = m[i] / c.bc1;
    const float vhat = v[i] / c.bc2;
    data[i] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
}

constexpr KernelTable kTable = {
    "portable", add, add_acc, mul,        mul_acc,    scale, axpy,
    relu,       add_relu,     relu_mask_acc, dot,
    matmul_rows, kron_dot_row, softmax_groups_row, matmul_nt_row, atb_acc,
    adam_step,
};

}  // namespace portable

#if defined(__ARM_NEON)

// ---- NEON backend --------------------------------------------------------
// Baseline on aarch64. Two q-registers emulate the 8-lane stripe of the
// dot contract; vfma is never used (mul + add keeps the two roundings the
// contract requires).

namespace neon {

void add(float* out, const float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void add_acc(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i, vaddq_f32(vld1q_f32(dst + i), vld1q_f32(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void mul(float* out, const float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void mul_acc(float* dst, const float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i,
              vaddq_f32(vld1q_f32(dst + i),
                        vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i))));
  }
  for (; i < n; ++i) dst[i] += a[i] * b[i];
}

void scale(float* out, const float* a, float s, std::size_t n) {
  const float32x4_t sv = vdupq_n_f32(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(vld1q_f32(a + i), sv));
  }
  for (; i < n; ++i) out[i] = a[i] * s;
}

void axpy(float* dst, float a, const float* x, std::size_t n) {
  const float32x4_t av = vdupq_n_f32(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i, vaddq_f32(vld1q_f32(dst + i),
                                 vmulq_f32(av, vld1q_f32(x + i))));
  }
  for (; i < n; ++i) dst[i] += a * x[i];
}

void relu(float* out, const float* a, std::size_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmaxq_f32(vld1q_f32(a + i), zero));
  }
  for (; i < n; ++i) out[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void add_relu(float* out, const float* a, const float* b, std::size_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmaxq_f32(vaddq_f32(vld1q_f32(a + i),
                                           vld1q_f32(b + i)),
                                 zero));
  }
  for (; i < n; ++i) {
    const float v = a[i] + b[i];
    out[i] = v > 0.0f ? v : 0.0f;
  }
}

void relu_mask_acc(float* dst, const float* y, const float* g,
                   std::size_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t mask = vcgtq_f32(vld1q_f32(y + i), zero);
    const float32x4_t gm = vreinterpretq_f32_u32(
        vandq_u32(vreinterpretq_u32_f32(vld1q_f32(g + i)), mask));
    vst1q_f32(dst + i, vaddq_f32(vld1q_f32(dst + i), gm));
  }
  for (; i < n; ++i) {
    if (y[i] > 0.0f) dst[i] += g[i];
  }
}

float dot(const float* a, const float* b, std::size_t n) {
  float32x4_t acc_lo = vdupq_n_f32(0.0f);  // lanes 0..3
  float32x4_t acc_hi = vdupq_n_f32(0.0f);  // lanes 4..7
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    acc_lo = vaddq_f32(acc_lo, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
    acc_hi = vaddq_f32(acc_hi,
                       vmulq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4)));
  }
  float lane[8];
  vst1q_f32(lane, acc_lo);
  vst1q_f32(lane + 4, acc_hi);
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
  for (; j + 8 <= m; j += 8) {
    float32x4_t av = vdupq_n_f32(a[0]);
    float32x4_t acc0 = vmulq_f32(av, vld1q_f32(b + j));
    float32x4_t acc1 = vmulq_f32(av, vld1q_f32(b + j + 4));
    for (std::size_t kk = 1; kk < k; ++kk) {
      av = vdupq_n_f32(a[kk]);
      const float* br = b + kk * m + j;
      acc0 = vaddq_f32(acc0, vmulq_f32(av, vld1q_f32(br)));
      acc1 = vaddq_f32(acc1, vmulq_f32(av, vld1q_f32(br + 4)));
    }
    vst1q_f32(out + j, acc0);
    vst1q_f32(out + j + 4, acc1);
  }
  for (; j < m; ++j) {
    float acc = a[0] * b[j];
    for (std::size_t kk = 1; kk < k; ++kk) acc += a[kk] * b[kk * m + j];
    out[j] = acc;
  }
}

void matmul_rows(float* out, const float* a, const float* b,
                 std::size_t rows, std::size_t k, std::size_t m) {
  for (std::size_t r = 0; r < rows; ++r) {
    matmul_row(out + r * m, a + r * k, b, k, m);
  }
}

void matmul_nt_row(float* out, const float* g, const float* b, std::size_t k,
                   std::size_t m) {
  // kk pairs share the g loads; each output still gets the exact dot tree.
  std::size_t kk = 0;
  for (; kk + 2 <= k; kk += 2) {
    const float* b0 = b + kk * m;
    const float* b1 = b0 + m;
    float32x4_t lo0 = vdupq_n_f32(0.0f), hi0 = vdupq_n_f32(0.0f);
    float32x4_t lo1 = vdupq_n_f32(0.0f), hi1 = vdupq_n_f32(0.0f);
    const std::size_t m8 = m & ~std::size_t{7};
    for (std::size_t i = 0; i < m8; i += 8) {
      const float32x4_t g_lo = vld1q_f32(g + i);
      const float32x4_t g_hi = vld1q_f32(g + i + 4);
      lo0 = vaddq_f32(lo0, vmulq_f32(g_lo, vld1q_f32(b0 + i)));
      hi0 = vaddq_f32(hi0, vmulq_f32(g_hi, vld1q_f32(b0 + i + 4)));
      lo1 = vaddq_f32(lo1, vmulq_f32(g_lo, vld1q_f32(b1 + i)));
      hi1 = vaddq_f32(hi1, vmulq_f32(g_hi, vld1q_f32(b1 + i + 4)));
    }
    float lane[8];
    vst1q_f32(lane, lo0);
    vst1q_f32(lane + 4, hi0);
    float t0 = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
               ((lane[4] + lane[5]) + (lane[6] + lane[7]));
    vst1q_f32(lane, lo1);
    vst1q_f32(lane + 4, hi1);
    float t1 = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
               ((lane[4] + lane[5]) + (lane[6] + lane[7]));
    for (std::size_t i = m8; i < m; ++i) {
      t0 += g[i] * b0[i];
      t1 += g[i] * b1[i];
    }
    out[kk] += t0;
    out[kk + 1] += t1;
  }
  for (; kk < k; ++kk) out[kk] += dot(g, b + kk * m, m);
}

void atb_acc(float* db, const float* a, const float* g, std::size_t n,
             std::size_t k, std::size_t lda, std::size_t stride,
             std::size_t width) {
  // i blocked by 4 to share the db tile; per-element adds stay in
  // ascending-i order and exact zeros are skipped, matching portable.
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
      std::size_t j = 0;
      for (; j + 4 <= width; j += 4) {
        float32x4_t acc = vld1q_f32(drow + j);
        acc = vaddq_f32(acc, vmulq_f32(vdupq_n_f32(av0), vld1q_f32(g0 + j)));
        acc = vaddq_f32(acc, vmulq_f32(vdupq_n_f32(av1), vld1q_f32(g1 + j)));
        acc = vaddq_f32(acc, vmulq_f32(vdupq_n_f32(av2), vld1q_f32(g2 + j)));
        acc = vaddq_f32(acc, vmulq_f32(vdupq_n_f32(av3), vld1q_f32(g3 + j)));
        vst1q_f32(drow + j, acc);
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
  // Scalar: sqrt/div throughput dominates and vsqrtq keeps IEEE rounding
  // anyway; the portable loop is already the exact contract.
  portable::adam_step(data, grad, m, v, n, c);
}

constexpr KernelTable kTable = {
    "neon", add, add_acc, mul,        mul_acc,    scale, axpy,
    relu,   add_relu,     relu_mask_acc, dot,
    matmul_rows, portable::kron_dot_row, portable::softmax_groups_row,
    matmul_nt_row, atb_acc, adam_step,
};

}  // namespace neon

#endif  // __ARM_NEON

/// The vector exp's acceptance probe (vector_exp_rejection). Every
/// kProbeStride-th float of [−88, −0] by bit pattern, ~65k inputs (~0.6 ms
/// once per process), plus the one input where an expf evaluated without
/// glibc's FMA contraction differs.
const char* probe_vector_exp() {
  const detail::ExpN exp_n = detail::avx2_exp_n();
  if (exp_n == nullptr) return "the build has no AVX2 backend";
#if defined(__x86_64__) || defined(_M_X64)
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
    return "the CPU lacks AVX2 or FMA";
  }
#endif
  constexpr std::uint32_t kNegZero = 0x80000000u;
  constexpr std::uint32_t kNeg88 = 0xc2b00000u;  // bits of −88.0f
  constexpr std::uint32_t kProbeStride = 17077;
  std::vector<float> in;
  for (std::uint32_t b = kNegZero; b <= kNeg88; b += kProbeStride) {
    in.push_back(std::bit_cast<float>(b));
  }
  in.push_back(-0x1.f8cbb2p+5f);
  std::vector<float> out(in.size());
  exp_n(out.data(), in.data(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const float want = std::exp(in[i]);
    if (std::bit_cast<std::uint32_t>(out[i]) !=
        std::bit_cast<std::uint32_t>(want)) {
      static char reason[160];
      std::snprintf(reason, sizeof(reason),
                    "the vector exp differs from std::exp at %a (%a vs %a)",
                    static_cast<double>(in[i]), static_cast<double>(out[i]),
                    static_cast<double>(want));
      return reason;
    }
  }
  return nullptr;
}

const KernelTable* pick() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2")) {
    if (const KernelTable* t = detail::avx2_table()) {
      if (vector_exp_rejection() == nullptr) return t;
      // The AVX2 8×7 softmax runs the vector exp; without it, the portable
      // softmax (scalar std::exp) takes its place.
      static const KernelTable scalar_exp = [t] {
        KernelTable k = *t;
        k.softmax_groups_row = portable::softmax_groups_row;
        return k;
      }();
      return &scalar_exp;
    }
  }
#endif
#if defined(__ARM_NEON)
  return &neon::kTable;
#endif
  return &portable::kTable;
}

std::atomic<const KernelTable*> g_active{nullptr};

}  // namespace

const KernelTable& active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = pick();
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

const char* simd_name() { return active().name; }

const char* vector_exp_rejection() {
  static const char* const reason = probe_vector_exp();
  return reason;
}

const KernelTable* detail::portable_table() { return &portable::kTable; }

void set_force_portable(bool on) {
  g_active.store(on ? &portable::kTable : pick(), std::memory_order_release);
}

}  // namespace tg::nn::kern
