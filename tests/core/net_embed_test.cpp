#include "core/net_embed.hpp"

#include <gtest/gtest.h>

#include <cmath>

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
