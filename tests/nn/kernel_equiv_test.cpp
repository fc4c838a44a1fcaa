/// \file kernel_equiv_test.cpp
/// Bit-identity contract of the SIMD kernel backends (nn/kernels.hpp):
/// whatever table dispatch resolves on this machine must produce results
/// that match the portable backend *bit for bit* — same rounding, same
/// reduction tree, same zero-skip policy. On a machine without AVX2/NEON
/// the dispatched table IS the portable table and the tests pass
/// trivially; on SIMD hardware they are the real cross-backend check.

#include "nn/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace tg::nn::kern {
namespace {

/// Restores normal dispatch even when an assertion aborts the test body.
struct ForcePortableGuard {
  ForcePortableGuard() { set_force_portable(false); }
  ~ForcePortableGuard() { set_force_portable(false); }
};

std::vector<float> rand_vec(std::size_t n, Rng& rng, double zero_frac = 0.0) {
  std::vector<float> v(n);
  for (float& x : v) {
    if (zero_frac > 0.0 && rng.uniform(0.0, 1.0) < zero_frac) {
      x = 0.0f;
    } else {
      x = static_cast<float>(rng.normal());
    }
  }
  return v;
}

void expect_bits_equal(const std::vector<float>& portable,
                       const std::vector<float>& simd,
                       const std::string& what) {
  ASSERT_EQ(portable.size(), simd.size()) << what;
  for (std::size_t i = 0; i < portable.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(portable[i]),
              std::bit_cast<std::uint32_t>(simd[i]))
        << what << " diverges at index " << i << ": portable=" << portable[i]
        << " simd=" << simd[i];
  }
}

/// Sizes chosen to hit the empty case, sub-vector-width cases, exact
/// multiples of 8, and ragged tails around every blocking boundary.
const std::size_t kSizes[] = {0,  1,  2,  3,  7,   8,   9,  15, 16,
                              17, 23, 31, 32, 33,  63,  64, 65, 100,
                              129, 257};

/// Runs `op` once forced-portable and once dispatched, bit-comparing the
/// output vector it fills.
template <typename Op>
void check_out_kernel(const std::string& what, std::size_t n, Op op) {
  ForcePortableGuard guard;
  Rng rng(static_cast<std::uint64_t>(n * 7919 + 13));
  const std::vector<float> init = rand_vec(n, rng);
  std::vector<float> portable = init;
  std::vector<float> simd = init;
  set_force_portable(true);
  op(portable);
  set_force_portable(false);
  op(simd);
  expect_bits_equal(portable, simd, what + " n=" + std::to_string(n));
}

TEST(KernelEquiv, Elementwise) {
  for (std::size_t n : kSizes) {
    Rng rng(n + 1);
    const std::vector<float> a = rand_vec(n, rng);
    const std::vector<float> b = rand_vec(n, rng);
    check_out_kernel("add", n, [&](std::vector<float>& out) {
      add(out.data(), a.data(), b.data(), n);
    });
    check_out_kernel("add_acc", n, [&](std::vector<float>& out) {
      add_acc(out.data(), a.data(), n);
    });
    check_out_kernel("mul", n, [&](std::vector<float>& out) {
      mul(out.data(), a.data(), b.data(), n);
    });
    check_out_kernel("mul_acc", n, [&](std::vector<float>& out) {
      mul_acc(out.data(), a.data(), b.data(), n);
    });
    check_out_kernel("scale", n, [&](std::vector<float>& out) {
      scale(out.data(), a.data(), 1.7f, n);
    });
    check_out_kernel("axpy", n, [&](std::vector<float>& out) {
      axpy(out.data(), -0.3f, a.data(), n);
    });
  }
}

TEST(KernelEquiv, ReluFamily) {
  for (std::size_t n : kSizes) {
    Rng rng(n + 101);
    // Mix exact zeros in so the mask kernels see all three sign cases.
    const std::vector<float> a = rand_vec(n, rng, 0.25);
    const std::vector<float> b = rand_vec(n, rng, 0.25);
    const std::vector<float> g = rand_vec(n, rng);
    check_out_kernel("relu", n, [&](std::vector<float>& out) {
      relu(out.data(), a.data(), n);
    });
    check_out_kernel("add_relu", n, [&](std::vector<float>& out) {
      add_relu(out.data(), a.data(), b.data(), n);
    });
    std::vector<float> y(n);
    add_relu(y.data(), a.data(), b.data(), n);
    check_out_kernel("relu_mask_acc", n, [&](std::vector<float>& out) {
      relu_mask_acc(out.data(), y.data(), g.data(), n);
    });
  }
}

TEST(KernelEquiv, DotMatchesPortableAndContractTree) {
  ForcePortableGuard guard;
  for (std::size_t n : kSizes) {
    Rng rng(n + 211);
    const std::vector<float> a = rand_vec(n, rng);
    const std::vector<float> b = rand_vec(n, rng);
    set_force_portable(true);
    const float portable = dot(a.data(), b.data(), n);
    set_force_portable(false);
    const float simd = dot(a.data(), b.data(), n);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(portable),
              std::bit_cast<std::uint32_t>(simd))
        << "dot n=" << n;
    // Independently rebuild the documented reduction: 8 striped lanes over
    // the n&~7 prefix, ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), serial tail.
    float lane[8] = {};
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t i = 0; i < n8; i += 8) {
      for (std::size_t l = 0; l < 8; ++l) lane[l] += a[i + l] * b[i + l];
    }
    float ref = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                ((lane[4] + lane[5]) + (lane[6] + lane[7]));
    for (std::size_t i = n8; i < n; ++i) ref += a[i] * b[i];
    ASSERT_EQ(std::bit_cast<std::uint32_t>(ref),
              std::bit_cast<std::uint32_t>(portable))
        << "dot contract tree n=" << n;
  }
}

/// matmul_rows tiles rows × columns in registers; every element must
/// still follow the contract: assigned a[0]·b[j], then kk ascending (k = 0
/// writes zeros: callers never pre-zero). rows = 1 runs the one-row path
/// alone over ragged widths; rows 1..9 run every row tail of the 8- and
/// 4-row blocking; the widths hit 16-column panels, the 8-column tail,
/// the scalar tail and all three.
TEST(KernelEquiv, MatmulRows) {
  ForcePortableGuard guard;
  struct Shape {
    std::size_t rows, k, m;
  };
  std::vector<Shape> shapes;
  const std::pair<std::size_t, std::size_t> one_row[] = {
      {0, 5}, {0, 16}, {1, 1}, {3, 5}, {4, 8}, {7, 9}, {8, 16}, {16, 16},
      {17, 33}, {64, 64}, {5, 257}};
  for (const auto& [k, m] : one_row) shapes.push_back({1, k, m});
  const std::size_t ks[] = {0, 1, 3, 8, 24, 32};
  const std::size_t ms[] = {3, 8, 16, 24, 32, 56, 57};
  for (std::size_t rows = 1; rows <= 9; ++rows) {
    for (const std::size_t k : ks) {
      for (const std::size_t m : ms) shapes.push_back({rows, k, m});
    }
  }
  for (const auto& [rows, k, m] : shapes) {
    const std::string what = "matmul_rows rows=" + std::to_string(rows) +
                             " k=" + std::to_string(k) +
                             " m=" + std::to_string(m);
    Rng rng(rows * 100003 + k * 1009 + m);
    const std::vector<float> a = rand_vec(rows * k, rng, 0.1);
    const std::vector<float> b = rand_vec(k * m, rng);
    // Pre-filled with garbage: the kernel must overwrite every element.
    const std::vector<float> init = rand_vec(rows * m, rng);
    std::vector<float> portable = init, simd = init, per_row = init;
    set_force_portable(true);
    matmul_rows(portable.data(), a.data(), b.data(), rows, k, m);
    set_force_portable(false);
    matmul_rows(simd.data(), a.data(), b.data(), rows, k, m);
    for (std::size_t r = 0; r < rows; ++r) {
      matmul_rows(per_row.data() + r * m, a.data() + r * k, b.data(), 1, k,
                  m);
    }
    std::vector<float> ref(rows * m, 0.0f);
    for (std::size_t r = 0; r < rows && k > 0; ++r) {
      for (std::size_t j = 0; j < m; ++j) {
        float acc = a[r * k] * b[j];
        for (std::size_t kk = 1; kk < k; ++kk) {
          acc += a[r * k + kk] * b[kk * m + j];
        }
        ref[r * m + j] = acc;
      }
    }
    expect_bits_equal(portable, simd, what + " dispatched vs portable");
    expect_bits_equal(per_row, simd, what + " vs one row at a time");
    expect_bits_equal(ref, portable, what + " vs contract");
  }
}

/// The Kronecker LUT read: the 8×7 serving shape runs one SIMD lane per
/// group, other shapes the scalar loop. Exact ±0 coefficients must skip
/// their LUT row entirely, so inf / NaN entries behind them must not
/// reach the output; a NaN coefficient must not skip.
TEST(KernelEquiv, KronDotRow) {
  ForcePortableGuard guard;
  const std::pair<std::size_t, std::size_t> shapes[] = {{8, 7}, {3, 5}};
  for (const auto& [groups, d] : shapes) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const std::string what = "kron_dot_row " + std::to_string(groups) +
                               "x" + std::to_string(d) +
                               " seed=" + std::to_string(seed);
      Rng rng(seed * 7 + groups * 131 + d);
      std::vector<float> a = rand_vec(groups * d, rng, 0.2);
      const std::vector<float> b = rand_vec(groups * d, rng);
      std::vector<float> lut = rand_vec(groups * d * d, rng);
      for (std::size_t g = 0; g < groups; ++g) {
        for (std::size_t i = 0; i < d; ++i) {
          float& ai = a[g * d + i];
          if (ai != 0.0f) continue;
          ai = (g + i + seed) % 2 == 0 ? 0.0f : -0.0f;
          float* row = lut.data() + g * d * d + i * d;
          row[(i + seed) % d] = std::signbit(ai)
                                    ? std::numeric_limits<float>::quiet_NaN()
                                    : std::numeric_limits<float>::infinity();
        }
      }
      if (seed % 5 == 0) {
        a[(seed % groups) * d] = std::numeric_limits<float>::quiet_NaN();
      }
      std::vector<float> portable(groups), simd(groups);
      set_force_portable(true);
      kron_dot_row(portable.data(), a.data(), b.data(), lut.data(), groups,
                   d);
      set_force_portable(false);
      kron_dot_row(simd.data(), a.data(), b.data(), lut.data(), groups, d);
      expect_bits_equal(portable, simd, what);
      for (std::size_t g = 0; g < groups; ++g) {
        const bool nan_coeff = seed % 5 == 0 && g == seed % groups;
        EXPECT_EQ(std::isnan(portable[g]), nan_coeff) << what << " g=" << g;
      }
    }
  }
}

/// softmax_groups_row: the 8×7 LUT-coefficient shape runs one SIMD lane
/// per group around a scalar std::exp, other shapes the scalar loop. Both
/// must match portable bit for bit, out of place and in place, including
/// signed-zero ties in the max and -inf logits.
TEST(KernelEquiv, SoftmaxGroupsRow) {
  ForcePortableGuard guard;
  const std::pair<std::size_t, std::size_t> shapes[] = {{56, 7}, {15, 5}};
  for (const auto& [cols, group] : shapes) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const std::string what = "softmax_groups_row cols=" +
                               std::to_string(cols) +
                               " seed=" + std::to_string(seed);
      Rng rng(seed * 13 + cols);
      std::vector<float> in = rand_vec(cols, rng, 0.2);
      for (float& x : in) x *= 8.0f;
      in[seed % cols] = -0.0f;
      in[(seed * 3) % cols] = -std::numeric_limits<float>::infinity();
      std::vector<float> portable(cols), simd(cols);
      set_force_portable(true);
      softmax_groups_row(portable.data(), in.data(), cols, group);
      set_force_portable(false);
      softmax_groups_row(simd.data(), in.data(), cols, group);
      expect_bits_equal(portable, simd, what);
      std::vector<float> in_place = in;
      softmax_groups_row(in_place.data(), in_place.data(), cols, group);
      expect_bits_equal(portable, in_place, what + " in place");
    }
  }
}

TEST(KernelEquiv, MatmulNtRow) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {3, 5}, {4, 8}, {5, 7}, {7, 9}, {8, 16}, {9, 16},
      {16, 16}, {17, 33}, {64, 64}, {3, 257}};
  for (const auto& [k, m] : shapes) {
    Rng rng(k * 2000 + m);
    const std::vector<float> g = rand_vec(m, rng);
    const std::vector<float> b = rand_vec(k * m, rng);
    // matmul_nt_row accumulates: both runs start from the same random out.
    check_out_kernel("matmul_nt_row m=" + std::to_string(m), k,
                     [&](std::vector<float>& out) {
                       matmul_nt_row(out.data(), g.data(), b.data(), k, m);
                     });
  }
}

TEST(KernelEquiv, AtbAcc) {
  struct Shape {
    std::size_t n, k, width, pad;
  };
  // n around multiples of the 4-row blocking, ragged widths, and a strided
  // destination (stride = width + pad, mimicking a column-slice of dB).
  const Shape shapes[] = {{1, 3, 5, 0},  {3, 4, 8, 0},  {4, 4, 8, 3},
                          {5, 7, 9, 0},  {8, 8, 16, 0}, {9, 5, 7, 2},
                          {16, 16, 16, 0}, {33, 8, 20, 4}, {100, 6, 11, 1}};
  for (const auto& s : shapes) {
    const std::size_t stride = s.width + s.pad;
    Rng rng(s.n * 31 + s.k * 7 + s.width);
    // Half the activations exactly zero: exercises both the all-zero block
    // skip and zeros inside live blocks (which must be multiplied, not
    // branched on, identically in every backend).
    std::vector<float> a = rand_vec(s.n * s.k, rng, 0.5);
    if (s.n >= 8) {
      // Force at least one fully-zero 4-row block per column.
      for (std::size_t i = 4; i < 8; ++i) {
        for (std::size_t kk = 0; kk < s.k; ++kk) a[i * s.k + kk] = 0.0f;
      }
    }
    const std::vector<float> g = rand_vec(s.n * stride, rng);
    check_out_kernel(
        "atb_acc n=" + std::to_string(s.n) + " k=" + std::to_string(s.k),
        s.k * stride, [&](std::vector<float>& out) {
          atb_acc(out.data(), a.data(), g.data(), s.n, s.k, s.k, stride,
                  s.width);
        });
  }
}

/// The row-sliced dB split: a chunk passes a column sub-panel of A (a + kb
/// with lda = full k) and fills only dB rows [kb, kb + k). Those rows must
/// match the portable backend bit for bit and equal the same rows of one
/// full-panel call.
TEST(KernelEquiv, AtbAccColumnSubPanel) {
  struct Shape {
    std::size_t n, lda, kb, k, width, pad;
  };
  // Ragged n (n mod 4 != 0), the hidden-16 MLP widths and a sub-vector
  // width, sub-panels at non-zero offsets of every size class.
  const Shape shapes[] = {{37, 11, 3, 5, 16, 0},  {101, 16, 7, 1, 16, 0},
                          {6, 9, 1, 4, 8, 0},     {203, 56, 40, 16, 8, 2},
                          {13, 3, 2, 1, 3, 0},    {99, 20, 19, 1, 3, 1}};
  for (const auto& s : shapes) {
    ASSERT_LE(s.kb + s.k, s.lda);
    const std::size_t stride = s.width + s.pad;
    const std::string what = "atb_acc sub-panel n=" + std::to_string(s.n) +
                             " lda=" + std::to_string(s.lda) +
                             " kb=" + std::to_string(s.kb) +
                             " width=" + std::to_string(s.width);
    Rng rng(s.n * 131 + s.lda * 17 + s.kb * 5 + s.width);
    std::vector<float> a = rand_vec(s.n * s.lda, rng, 0.5);
    // Fully-zero 4-row blocks inside the sub-panel only: the skip must be
    // decided per kk, not per whole A row.
    for (std::size_t i = 0; i + 4 <= s.n; i += 8) {
      for (std::size_t r = i; r < i + 4; ++r) {
        for (std::size_t kk = s.kb; kk < s.kb + s.k; ++kk) {
          a[r * s.lda + kk] = 0.0f;
        }
      }
    }
    const std::vector<float> g = rand_vec(s.n * stride, rng);
    const float* sub_a = a.data() + s.kb;
    check_out_kernel(what, s.k * stride, [&](std::vector<float>& out) {
      atb_acc(out.data(), sub_a, g.data(), s.n, s.k, s.lda, stride,
              s.width);
    });

    ForcePortableGuard guard;
    for (bool portable : {true, false}) {
      set_force_portable(portable);
      const std::vector<float> init = rand_vec(s.lda * stride, rng);
      std::vector<float> full = init;
      atb_acc(full.data(), a.data(), g.data(), s.n, s.lda, s.lda, stride,
              s.width);
      std::vector<float> rows(init.begin() + s.kb * stride,
                              init.begin() + (s.kb + s.k) * stride);
      atb_acc(rows.data(), sub_a, g.data(), s.n, s.k, s.lda, stride,
              s.width);
      expect_bits_equal(
          std::vector<float>(full.begin() + s.kb * stride,
                             full.begin() + (s.kb + s.k) * stride),
          rows, what + (portable ? " portable" : " dispatched") +
                    " vs full panel");
    }
  }
}

TEST(KernelEquiv, AdamStep) {
  ForcePortableGuard guard;
  for (std::size_t n : kSizes) {
    Rng rng(n + 401);
    const std::vector<float> data0 = rand_vec(n, rng);
    const std::vector<float> grad = rand_vec(n, rng, 0.2);
    const std::vector<float> m0 = rand_vec(n, rng, 0.2);
    std::vector<float> v0 = rand_vec(n, rng);
    for (float& x : v0) x = x * x;  // v must stay non-negative
    AdamConsts c{.lr = 1e-3f,
                 .beta1 = 0.9f,
                 .beta2 = 0.999f,
                 .eps = 1e-8f,
                 .weight_decay = 0.01f,
                 .clip_scale = 0.5f,
                 .bc1 = 0.19f,
                 .bc2 = 0.002f};
    std::vector<float> dp = data0, mp = m0, vp = v0;
    std::vector<float> ds = data0, ms = m0, vs = v0;
    set_force_portable(true);
    adam_step(dp.data(), grad.data(), mp.data(), vp.data(), n, c);
    set_force_portable(false);
    adam_step(ds.data(), grad.data(), ms.data(), vs.data(), n, c);
    expect_bits_equal(dp, ds, "adam data n=" + std::to_string(n));
    expect_bits_equal(mp, ms, "adam m n=" + std::to_string(n));
    expect_bits_equal(vp, vs, "adam v n=" + std::to_string(n));
  }
}

TEST(KernelEquiv, DispatchReportsBackend) {
  ForcePortableGuard guard;
  set_force_portable(true);
  EXPECT_STREQ(simd_name(), "portable");
  set_force_portable(false);
  const std::string name = simd_name();
  EXPECT_TRUE(name == "avx2" || name == "neon" || name == "portable") << name;
  // On x86 builds with the AVX2 TU compiled in, the table must be present
  // even if this CPU cannot run it.
#if defined(TG_HAVE_AVX2_TU)
  EXPECT_NE(detail::avx2_table(), nullptr);
#endif
}

}  // namespace
}  // namespace tg::nn::kern
