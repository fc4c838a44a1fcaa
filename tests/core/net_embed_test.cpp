#include "core/net_embed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "core/test_fixture.hpp"
#include "nn/optim.hpp"

namespace tg::core {
namespace {

NetEmbedConfig tiny_config() {
  NetEmbedConfig cfg;
  cfg.hidden = 8;
  cfg.mlp_hidden = 8;
  cfg.mlp_layers = 1;
  cfg.num_layers = 2;
  return cfg;
}

/// A hand-made pin graph with net shapes extraction does not emit next to
/// the ones it does: driver 0 of five sinks whose edges interleave other
/// nets' edges, a chain 3 → 4 → 6 (pin 4 is a sink and a driver), sink 10
/// fed by drivers 9 and 11, and pins 12 and 13 with no net edge.
data::DatasetGraph odd_nets_graph() {
  data::Topology::Arrays a;
  a.num_nodes = 14;
  a.num_levels = 3;
  a.node_level = {0, 1, 1, 0, 1, 1, 2, 1, 1, 0, 1, 0, 0, 0};
  a.net_src = {0, 3, 0, 9, 0, 4, 11, 0, 0};
  a.net_dst = {1, 4, 2, 10, 5, 6, 10, 7, 8};
  data::DatasetGraph g;
  g.topo = std::make_shared<const data::Topology>(std::move(a));
  Rng rng(9);
  g.node_feat = nn::Tensor::rand_uniform(14, data::kNodeFeatureDim, 1.0f, rng);
  g.net_edge_feat =
      nn::Tensor::rand_uniform(9, data::kNetEdgeFeatureDim, 1.0f, rng);
  return g;
}

/// Bitwise equality of `out`'s rows `rows` with the same rows of `ref`.
void expect_rows_bitwise(const nn::Tensor& out, const nn::Tensor& ref,
                         const std::vector<int>& rows) {
  ASSERT_EQ(out.cols(), ref.cols());
  for (const int r : rows) {
    for (std::int64_t c = 0; c < out.cols(); ++c) {
      const float a = out.at(r, c), b = ref.at(r, c);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(float)), 0)
          << "row " << r << " col " << c << ": " << a << " vs " << b;
    }
  }
}

TEST(NetEmbed, NetsAreTheNetEdgeComponents) {
  const data::DatasetGraph g = odd_nets_graph();
  const data::NetLists& nets = g.topo->nets();
  ASSERT_EQ(nets.size(), 5);
  EXPECT_EQ(nets.node_off, (std::vector<int>{0, 6, 9, 12, 13, 14}));
  EXPECT_EQ(nets.nodes, (std::vector<int>{0, 1, 2, 5, 7, 8, 3, 4, 6, 9, 10,
                                          11, 12, 13}));
  EXPECT_EQ(nets.edge_off, (std::vector<int>{0, 5, 7, 9, 9, 9}));
  EXPECT_EQ(nets.edges, (std::vector<int>{0, 2, 4, 7, 8, 1, 5, 3, 6}));
  EXPECT_EQ(nets.net_of,
            (std::vector<int>{0, 0, 0, 1, 1, 0, 1, 0, 0, 2, 2, 2, 3, 4}));
  EXPECT_EQ(nets.row,
            (std::vector<int>{0, 1, 2, 0, 1, 3, 2, 4, 5, 0, 1, 2, 0, 0}));
}

/// embed_nets against forward on every net and on a subset: the listed
/// nets' rows match bit for bit, the others keep what `out` held.
TEST(NetEmbed, EmbedNetsBitIdenticalToForwardOnEveryNetShape) {
  const data::DatasetGraph g = odd_nets_graph();
  NetEmbedConfig shapes[] = {tiny_config(), NetEmbedConfig{}};
  for (const NetEmbedConfig& cfg : shapes) {
    Rng rng(11);
    const NetEmbed model(cfg, rng);
    const nn::Tensor ref = model.forward(g);
    std::vector<int> all_rows(14);
    std::iota(all_rows.begin(), all_rows.end(), 0);

    nn::Tensor out = nn::Tensor::zeros(14, cfg.hidden);
    model.embed_nets(g, std::vector<int>{0, 1, 2, 3, 4}, out);
    expect_rows_bitwise(out, ref, all_rows);

    nn::Tensor part = nn::Tensor::full(14, cfg.hidden, 7.0f);
    model.embed_nets(g, std::vector<int>{1, 4}, part);
    expect_rows_bitwise(part, ref, {3, 4, 6, 13});
    for (const int r : {0, 1, 2, 5, 7, 8, 9, 10, 11, 12}) {
      EXPECT_EQ(part.at(r, 0), 7.0f) << "row " << r << " was written";
    }
  }
}

TEST(NetEmbed, ForwardShapes) {
  Rng rng(1);
  const NetEmbed model(tiny_config(), rng);
  const auto& g = testing::train_graph();
  const nn::Tensor emb = model.forward(g);
  EXPECT_EQ(emb.rows(), g.num_nodes());
  EXPECT_EQ(emb.cols(), 8);
  const nn::Tensor delay = model.predict_net_delay(g, emb);
  EXPECT_EQ(delay.rows(), g.num_nodes());
  EXPECT_EQ(delay.cols(), kNumCorners);
}

TEST(NetEmbed, PredictionsFiniteAndZeroAtNonSinks) {
  Rng rng(2);
  const NetEmbed model(tiny_config(), rng);
  const auto& g = testing::train_graph();
  const nn::Tensor delay = model.predict_net_delay(g, model.forward(g));
  for (float v : delay.data()) EXPECT_TRUE(std::isfinite(v));
  // Rows without an incoming net edge stay exactly zero.
  std::vector<char> is_sink(static_cast<std::size_t>(g.num_nodes()), 0);
  for (int s : g.topo->net_sinks()) is_sink[static_cast<std::size_t>(s)] = 1;
  for (int v = 0; v < g.num_nodes(); ++v) {
    if (is_sink[static_cast<std::size_t>(v)]) continue;
    for (int c = 0; c < kNumCorners; ++c) EXPECT_FLOAT_EQ(delay.at(v, c), 0.0f);
  }
}

TEST(NetEmbed, DeterministicForward) {
  Rng rng(3);
  const NetEmbed model(tiny_config(), rng);
  const auto& g = testing::train_graph();
  const nn::Tensor a = model.forward(g);
  const nn::Tensor b = model.forward(g);
  for (std::int64_t i = 0; i < a.numel(); i += 31) {
    EXPECT_EQ(a.data()[static_cast<std::size_t>(i)], b.data()[static_cast<std::size_t>(i)]);
  }
}

TEST(NetEmbed, GradientsReachAllParameters) {
  Rng rng(4);
  NetEmbed model(tiny_config(), rng);
  const auto& g = testing::train_graph();
  nn::Tensor pred = model.predict_net_delay(g, model.forward(g));
  nn::Tensor target = nn::gather_rows(g.net_delay, g.topo->net_sinks());
  nn::Tensor loss = nn::mse_loss_rows(pred, g.topo->net_sinks(), target);
  loss.backward();
  int nonzero_params = 0;
  for (const nn::Tensor& p : model.parameters()) {
    nn::Tensor copy = p;
    double norm = 0.0;
    for (float v : copy.grad()) norm += std::abs(v);
    if (norm > 0.0) ++nonzero_params;
  }
  // All parameter tensors participate (broadcast, reduce, merge, heads).
  EXPECT_EQ(nonzero_params, static_cast<int>(model.parameters().size()));
}

TEST(NetEmbed, FewStepsReduceLoss) {
  Rng rng(5);
  NetEmbed model(tiny_config(), rng);
  const auto& g = testing::train_graph();
  nn::Adam adam(model.parameters(), nn::AdamConfig{.lr = 3e-3f, .grad_clip = 5.0f});
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 30; ++step) {
    adam.zero_grad();
    nn::Tensor pred = model.predict_net_delay(g, model.forward(g));
    nn::Tensor target = nn::gather_rows(g.net_delay, g.topo->net_sinks());
    nn::Tensor loss = nn::mse_loss_rows(pred, g.topo->net_sinks(), target);
    loss.backward();
    adam.step();
    if (step == 0) first = loss.item();
    last = loss.item();
  }
  EXPECT_LT(last, 0.8 * first);
}

TEST(NetEmbed, EmbeddingDependsOnPlacementFeatures) {
  // Perturbing a pin's position must change its embedding (the model reads
  // the placement).
  Rng rng(6);
  const NetEmbed model(tiny_config(), rng);
  const auto& g = testing::train_graph();
  const nn::Tensor base = model.forward(g);

  data::DatasetGraph perturbed = g;
  std::vector<float> feat(perturbed.node_feat.data().begin(),
                          perturbed.node_feat.data().end());
  feat[2] += 1.0f;  // move node 0 in x
  perturbed.node_feat = nn::Tensor::from_vector(
      std::move(feat), g.node_feat.rows(), g.node_feat.cols());
  const nn::Tensor moved = model.forward(perturbed);

  double diff = 0.0;
  for (std::int64_t c = 0; c < base.cols(); ++c) {
    diff += std::abs(base.at(0, c) - moved.at(0, c));
  }
  EXPECT_GT(diff, 0.0);
}

}  // namespace
}  // namespace tg::core
