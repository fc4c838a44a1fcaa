#include "nn/gradcheck.hpp"

#include <gtest/gtest.h>

#include "nn/ops.hpp"

namespace tg::nn {
namespace {

Tensor randn(std::int64_t r, std::int64_t c, Rng& rng, float scale = 1.0f) {
  std::vector<float> v(static_cast<std::size_t>(r * c));
  for (float& x : v) x = static_cast<float>(rng.normal()) * scale;
  return Tensor::from_vector(std::move(v), r, c, true);
}

// Variadic so lambdas containing commas (braced initializers) still parse.
#define TG_EXPECT_GRAD_OK(...)                                     \
  do {                                                             \
    const GradCheckResult res = gradcheck(__VA_ARGS__);            \
    EXPECT_TRUE(res.ok) << "max rel err " << res.max_rel_error     \
                        << ", max abs err " << res.max_abs_error;  \
  } while (0)

TEST(GradCheck, Add) {
  Rng rng(1);
  std::vector<Tensor> in{randn(3, 4, rng), randn(3, 4, rng)};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) { return sum_all(add(t[0], t[1])); },
      in);
}

TEST(GradCheck, AddBroadcast) {
  Rng rng(2);
  std::vector<Tensor> in{randn(4, 3, rng), randn(1, 3, rng)};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        return mean_all(mul(add(t[0], t[1]), add(t[0], t[1])));
      },
      in);
}

TEST(GradCheck, MulAndScale) {
  Rng rng(3);
  std::vector<Tensor> in{randn(3, 3, rng), randn(3, 3, rng)};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        return sum_all(scale(mul(t[0], t[1]), 0.7f));
      },
      in);
}

TEST(GradCheck, Matmul) {
  Rng rng(4);
  std::vector<Tensor> in{randn(3, 4, rng), randn(4, 2, rng)};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        return sum_all(mul(matmul(t[0], t[1]), matmul(t[0], t[1])));
      },
      in);
}

TEST(GradCheck, ReluAwayFromKink) {
  Rng rng(6);
  // Shift inputs away from 0 so finite differences are valid.
  Tensor x = randn(4, 4, rng);
  for (float& v : x.data()) v += (v >= 0.0f ? 0.5f : -0.5f);
  std::vector<Tensor> in{x};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        return sum_all(mul(relu(t[0]), relu(t[0])));
      },
      in);
}

TEST(GradCheck, AddReluFused) {
  Rng rng(61);
  // Kink of add_relu sits at a + b == 0: nudge a so every sum is away
  // from it and finite differences stay valid.
  Tensor a = randn(4, 5, rng);
  Tensor b = randn(4, 5, rng);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const float s = a.data()[idx] + b.data()[idx];
    a.data()[idx] += (s >= 0.0f ? 0.5f : -0.5f);
  }
  std::vector<Tensor> in{a, b};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        return sum_all(mul(add_relu(t[0], t[1]), add_relu(t[0], t[1])));
      },
      in);
}

TEST(GradCheck, AddReluBroadcastBias) {
  Rng rng(62);
  // The Linear+bias+ReLU fusion path: b is a 1 x cols row broadcast over
  // every row of a. Same kink shift, applied against the broadcast sum.
  Tensor a = randn(5, 3, rng);
  Tensor b = randn(1, 3, rng);
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    for (std::int64_t c = 0; c < a.cols(); ++c) {
      const auto idx = static_cast<std::size_t>(r * a.cols() + c);
      const float s = a.data()[idx] + b.data()[static_cast<std::size_t>(c)];
      a.data()[idx] += (s >= 0.0f ? 0.5f : -0.5f);
    }
  }
  std::vector<Tensor> in{a, b};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        return sum_all(mul(add_relu(t[0], t[1]), add_relu(t[0], t[1])));
      },
      in);
}

TEST(GradCheck, FusedMatchesUnfused) {
  // The fused op must agree with its primitive composition: forward is
  // the same float expression, and so is backward (bit-equal).
  Rng rng(64);
  auto clone = [](const Tensor& t) {
    return Tensor::from_vector(
        std::vector<float>(t.data().begin(), t.data().end()), t.rows(),
        t.cols(), true);
  };
  Tensor a1 = randn(6, 4, rng);
  Tensor b1 = randn(1, 4, rng);
  Tensor a2 = clone(a1);
  Tensor b2 = clone(b1);
  Tensor fused = sum_all(add_relu(a1, b1));
  Tensor ref = sum_all(relu(add(a2, b2)));
  ASSERT_EQ(fused.item(), ref.item());
  fused.backward();
  ref.backward();
  for (std::int64_t i = 0; i < a1.numel(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    ASSERT_EQ(a1.grad()[idx], a2.grad()[idx]) << "dA at " << i;
  }
  for (std::int64_t i = 0; i < b1.numel(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    ASSERT_EQ(b1.grad()[idx], b2.grad()[idx]) << "dBias at " << i;
  }
}

TEST(GradCheck, ConcatSliceRows) {
  Rng rng(7);
  std::vector<Tensor> in{randn(3, 2, rng), randn(3, 3, rng)};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        const Tensor parts[] = {t[0], t[1]};
        Tensor c = concat_cols(parts);
        return sum_all(mul(slice_cols(c, 1, 4), slice_cols(c, 0, 3)));
      },
      in);
}

TEST(GradCheck, ConcatRows) {
  Rng rng(8);
  std::vector<Tensor> in{randn(2, 3, rng), randn(3, 3, rng)};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        const Tensor parts[] = {t[0], t[1]};
        Tensor c = concat_rows(parts);
        return sum_all(mul(c, c));
      },
      in);
}

TEST(GradCheck, GatherRows) {
  Rng rng(9);
  std::vector<Tensor> in{randn(5, 3, rng)};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        Tensor g = gather_rows(t[0], {0, 2, 2, 4});
        return sum_all(mul(g, g));
      },
      in);
}

TEST(GradCheck, MultiGather) {
  Rng rng(10);
  std::vector<Tensor> in{randn(2, 3, rng), randn(3, 3, rng)};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        const Tensor sources[] = {t[0], t[1]};
        Tensor g = multi_gather(sources, {0, 1, 1, 0}, {1, 2, 0, 1});
        return sum_all(mul(g, g));
      },
      in);
}

TEST(GradCheck, SegmentSum) {
  Rng rng(11);
  std::vector<Tensor> in{randn(6, 2, rng)};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        Tensor s = segment_sum(t[0], {0, 1, 1, 2, 2, 2}, 4);
        return sum_all(mul(s, s));
      },
      in);
}

TEST(GradCheck, SegmentMax) {
  Rng rng(12);
  std::vector<Tensor> in{randn(6, 2, rng)};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        Tensor m = segment_max(t[0], {0, 0, 1, 1, 1, 2}, 3);
        return sum_all(mul(m, m));
      },
      in);
}

TEST(GradCheck, SpmmCsr) {
  Rng rng(13);
  std::vector<Tensor> in{randn(4, 3, rng)};
  // Source row 0 feeds two outputs and output row 2 sums two sources, so
  // both the forward CSR and its transpose hold multi-edge rows.
  const SpmmCsr csr = build_spmm_csr({0, 1, 2, 3, 0}, {0, 0, 1, 2, 2},
                                     {0.5f, 1.5f, -1.0f, 2.0f, 0.3f}, 3, 4);
  TG_EXPECT_GRAD_OK(
      [&csr](const std::vector<Tensor>& t) {
        Tensor y = spmm_csr(csr, t[0]);
        return sum_all(mul(y, y));
      },
      in);
}

TEST(GradCheck, SoftmaxGroups) {
  Rng rng(14);
  std::vector<Tensor> in{randn(3, 6, rng)};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        Tensor s = softmax_groups(t[0], 3);
        return sum_all(mul(s, s));
      },
      in);
}

TEST(GradCheck, LutKronDotAllInputs) {
  Rng rng(15);
  const std::int64_t d = 3;
  std::vector<Tensor> in{randn(2, 2 * d, rng), randn(2, 2 * d, rng),
                         randn(2, 2 * d * d, rng)};
  TG_EXPECT_GRAD_OK(
      [d](const std::vector<Tensor>& t) {
        Tensor out = lut_kron_dot(t[0], t[1], t[2], d);
        return sum_all(mul(out, out));
      },
      in);
}

TEST(GradCheck, MseLoss) {
  Rng rng(16);
  std::vector<Tensor> in{randn(4, 2, rng), randn(4, 2, rng)};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) { return mse_loss(t[0], t[1]); }, in);
}

TEST(GradCheck, MseLossRows) {
  Rng rng(17);
  std::vector<Tensor> in{randn(5, 2, rng), randn(3, 2, rng)};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        return mse_loss_rows(t[0], {0, 2, 4}, t[1]);
      },
      in);
}

TEST(GradCheck, ComposedMessagePassingLayer) {
  // A miniature net-conv layer: gather, concat, matmul, relu-free path,
  // segment reduce — the full composition the model uses.
  Rng rng(18);
  std::vector<Tensor> in{randn(4, 3, rng), randn(9, 2, rng)};
  TG_EXPECT_GRAD_OK(
      [](const std::vector<Tensor>& t) {
        Tensor h = t[0];                           // [4 nodes, 3]
        Tensor w = t[1];                           // weight [9, 2]
        Tensor hd = gather_rows(h, {0, 0, 1, 2});  // 4 edges
        Tensor hs = gather_rows(h, {1, 2, 3, 3});
        const Tensor cat_parts[] = {hd, hs, gather_rows(h, {3, 2, 1, 0})};
        Tensor msg = matmul(concat_cols(cat_parts), w);  // [4, 2]
        Tensor summed = segment_sum(msg, {0, 1, 1, 2}, 3);
        Tensor maxed = segment_max(msg, {0, 1, 1, 2}, 3);
        return sum_all(mul(add(summed, maxed), add(summed, maxed)));
      },
      in);
}

}  // namespace
}  // namespace tg::nn
