#include "core/gcnii.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/test_fixture.hpp"

namespace tg::core {
namespace {

GcniiConfig tiny_config(int layers = 4) {
  GcniiConfig cfg;
  cfg.num_layers = layers;
  cfg.hidden = 8;
  return cfg;
}

TEST(GcniiAdjacency, SymmetricNormalization) {
  const auto& g = testing::train_graph();
  const GcniiAdjacency adj = build_gcnii_adjacency(g);
  // Edge count: 2×(net + cell) + self loops.
  EXPECT_EQ(adj.src.size(),
            2 * (g.topo->net_src().size() + g.topo->cell_src().size()) +
                static_cast<std::size_t>(g.num_nodes()));
  // Weights positive, symmetric (w(u,v) == w(v,u) since paired entries are
  // adjacent), and self loops carry exactly 1/d(v).
  std::vector<int> degree(static_cast<std::size_t>(g.num_nodes()), 1);
  for (std::size_t e = 0; e < g.topo->net_src().size(); ++e) {
    ++degree[static_cast<std::size_t>(g.topo->net_src()[e])];
    ++degree[static_cast<std::size_t>(g.topo->net_dst()[e])];
  }
  for (std::size_t e = 0; e < g.topo->cell_src().size(); ++e) {
    ++degree[static_cast<std::size_t>(g.topo->cell_src()[e])];
    ++degree[static_cast<std::size_t>(g.topo->cell_dst()[e])];
  }
  for (std::size_t e = 0; e < adj.src.size(); ++e) {
    EXPECT_GT(adj.w[e], 0.0f);
    const double expected =
        1.0 / std::sqrt(static_cast<double>(degree[static_cast<std::size_t>(adj.src[e])]) *
                        static_cast<double>(degree[static_cast<std::size_t>(adj.dst[e])]));
    EXPECT_NEAR(adj.w[e], expected, 1e-6);
  }
}

TEST(Gcnii, ForwardShapes) {
  const Gcnii model(tiny_config());
  const auto& g = testing::train_graph();
  const GcniiAdjacency adj = build_gcnii_adjacency(g);
  const nn::Tensor pred = model.forward(g, adj);
  EXPECT_EQ(pred.rows(), g.num_nodes());
  EXPECT_EQ(pred.cols(), 2 * kNumCorners);
  for (float v : pred.data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Gcnii, DepthChangesOutput) {
  const auto& g = testing::train_graph();
  const GcniiAdjacency adj = build_gcnii_adjacency(g);
  const Gcnii shallow(tiny_config(2));
  const Gcnii deep(tiny_config(8));
  const nn::Tensor a = shallow.forward(g, adj);
  const nn::Tensor b = deep.forward(g, adj);
  double diff = 0.0;
  for (std::int64_t i = 0; i < a.numel(); i += 17) {
    diff += std::abs(a.data()[static_cast<std::size_t>(i)] -
                     b.data()[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(diff, 0.0);
}

TEST(Gcnii, ParameterCountScalesWithDepth) {
  const Gcnii l4(tiny_config(4));
  const Gcnii l8(tiny_config(8));
  EXPECT_GT(l8.num_parameters(), l4.num_parameters());
  // in + layers + head, each with W and b.
  EXPECT_EQ(l4.parameters().size(), 2u * (1 + 4 + 1));
}

TEST(Gcnii, ResidualKeepsDeepOutputsBounded) {
  // GCNII's residual/identity design keeps a 16-layer forward finite.
  const Gcnii deep(tiny_config(16));
  const auto& g = testing::train_graph();
  const GcniiAdjacency adj = build_gcnii_adjacency(g);
  const nn::Tensor pred = deep.forward(g, adj);
  for (float v : pred.data()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(std::abs(v), 1e4f);
  }
}

TEST(Gcnii, LayerNormVariantRunsAndAddsParameters) {
  GcniiConfig plain_cfg = tiny_config(4);
  GcniiConfig norm_cfg = tiny_config(4);
  norm_cfg.use_layer_norm = true;
  const Gcnii plain(plain_cfg);
  Gcnii normed(norm_cfg);
  // 4 layers × (gamma + beta) extra tensors.
  EXPECT_EQ(normed.parameters().size(), plain.parameters().size() + 8);

  const auto& g = testing::train_graph();
  const GcniiAdjacency adj = build_gcnii_adjacency(g);
  const nn::Tensor pred = normed.forward(g, adj);
  EXPECT_EQ(pred.rows(), g.num_nodes());
  for (float v : pred.data()) EXPECT_TRUE(std::isfinite(v));
  // Gradients reach the norm parameters.
  normed.loss(g, normed.forward(g, adj)).backward();
  int with_grad = 0;
  for (const nn::Tensor& p : normed.parameters()) {
    nn::Tensor copy = p;
    double norm = 0.0;
    for (float v : copy.grad()) norm += std::abs(v);
    if (norm > 0.0) ++with_grad;
  }
  EXPECT_EQ(with_grad, static_cast<int>(normed.parameters().size()));
}

TEST(Gcnii, LossBackwardProducesGradients) {
  Gcnii model(tiny_config());
  const auto& g = testing::train_graph();
  const GcniiAdjacency adj = build_gcnii_adjacency(g);
  model.loss(g, model.forward(g, adj)).backward();
  for (const nn::Tensor& p : model.parameters()) {
    nn::Tensor copy = p;
    double norm = 0.0;
    for (float v : copy.grad()) norm += std::abs(v);
    EXPECT_GT(norm, 0.0);
  }
}

}  // namespace
}  // namespace tg::core
