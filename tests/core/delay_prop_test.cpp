#include "core/delay_prop.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/test_fixture.hpp"
#include "gen/suite.hpp"
#include "util/parallel.hpp"

namespace tg::core {
namespace {

DelayPropConfig tiny_prop() {
  DelayPropConfig cfg;
  cfg.hidden = 8;
  cfg.mlp_hidden = 8;
  cfg.mlp_layers = 1;
  cfg.lut.mlp_hidden = 8;
  cfg.lut.mlp_layers = 1;
  return cfg;
}

TEST(PropPlan, CoversAllNodesAndEdges) {
  const auto& g = testing::train_graph();
  const PropPlan plan = build_prop_plan(g);
  EXPECT_EQ(plan.num_levels, g.num_levels());
  std::size_t nodes = 0;
  for (const auto& lvl : plan.level_rows) nodes += lvl->size();
  EXPECT_EQ(nodes, static_cast<std::size_t>(g.num_nodes()));
  std::size_t net_edges = 0, cell_edges = 0;
  for (const auto& f : plan.net_feed) net_edges += f.feat_rows->size();
  for (const auto& f : plan.cell_feed) cell_edges += f.feat_rows->size();
  EXPECT_EQ(net_edges, g.topo->net_src().size());
  EXPECT_EQ(cell_edges, g.topo->cell_src().size());
  EXPECT_EQ(g.topo->csr().cell_perm.size(), g.topo->cell_src().size());
}

TEST(PropPlan, RowsAreConsistent) {
  const auto& g = testing::train_graph();
  const PropPlan plan = build_prop_plan(g);
  for (int v = 0; v < g.num_nodes(); ++v) {
    const auto lvl =
        static_cast<std::size_t>(g.topo->node_level()[static_cast<std::size_t>(v)]);
    const auto row =
        static_cast<std::size_t>(g.topo->csr().node_row[static_cast<std::size_t>(v)]);
    EXPECT_EQ((*plan.level_rows[lvl])[row], v);
  }
}

TEST(DelayProp, ForwardShapes) {
  Rng rng(1);
  const DelayProp model(8, tiny_prop(), rng);
  const auto& g = testing::train_graph();
  const PropPlan plan = build_prop_plan(g);
  nn::Tensor emb = nn::Tensor::rand_uniform(g.num_nodes(), 8, 0.5f, rng);
  const DelayProp::Output out = model.forward(g, plan, emb);
  EXPECT_EQ(out.state.rows(), g.num_nodes());
  EXPECT_EQ(out.state.cols(), 8);
  EXPECT_EQ(out.cell_delay.rows(),
            static_cast<std::int64_t>(g.topo->cell_src().size()));
  EXPECT_EQ(out.cell_delay.cols(), kNumCorners);
}

TEST(DelayProp, CellDelayPredictionsFinite) {
  Rng rng(2);
  const DelayProp model(8, tiny_prop(), rng);
  const auto& g = testing::train_graph();
  const PropPlan plan = build_prop_plan(g);
  nn::Tensor emb = nn::Tensor::rand_uniform(g.num_nodes(), 8, 0.5f, rng);
  const DelayProp::Output out = model.forward(g, plan, emb);
  for (float v : out.cell_delay.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(DelayProp, GradientsFlowThroughLevels) {
  Rng rng(3);
  DelayProp model(8, tiny_prop(), rng);
  const auto& g = testing::train_graph();
  const PropPlan plan = build_prop_plan(g);
  nn::Tensor emb = nn::Tensor::rand_uniform(g.num_nodes(), 8, 0.5f, rng, true);
  const DelayProp::Output out = model.forward(g, plan, emb);
  nn::Tensor loss = nn::add(nn::sum_all(nn::mul(out.state, out.state)),
                            nn::sum_all(out.cell_delay));
  loss.backward();
  // The embedding of a level-0 node must receive gradient (flows through
  // the whole levelized pipeline).
  double norm = 0.0;
  for (float v : emb.grad()) norm += std::abs(v);
  EXPECT_GT(norm, 0.0);
  for (const nn::Tensor& p : model.parameters()) {
    nn::Tensor copy = p;
    double pnorm = 0.0;
    for (float v : copy.grad()) pnorm += std::abs(v);
    EXPECT_GT(pnorm, 0.0);
  }
}

TEST(DelayProp, ReceptiveFieldCoversFullDepth) {
  // This is the paper's Fig. 1 argument made executable: perturbing the
  // embedding of a level-0 root must change the state of the deepest node,
  // even though the deepest node is dozens of hops away — impossible for a
  // K-layer GCN with K « depth.
  Rng rng(4);
  const DelayProp model(8, tiny_prop(), rng);
  const auto& g = testing::train_graph();
  const PropPlan plan = build_prop_plan(g);
  nn::Tensor emb = nn::Tensor::rand_uniform(g.num_nodes(), 8, 0.5f, rng);

  // Find a deepest node and one of its cone roots by walking predecessors.
  int deep_node = 0;
  for (int v = 0; v < g.num_nodes(); ++v) {
    if (g.topo->node_level()[static_cast<std::size_t>(v)] >
        g.topo->node_level()[static_cast<std::size_t>(deep_node)]) {
      deep_node = v;
    }
  }
  ASSERT_GT(g.topo->node_level()[static_cast<std::size_t>(deep_node)], 10);

  const nn::Tensor base = model.forward(g, plan, emb).state;

  // Perturb ALL level-0 embeddings (the union of cone roots).
  nn::Tensor emb2 = nn::Tensor::from_vector(
      std::vector<float>(emb.data().begin(), emb.data().end()), emb.rows(),
      emb.cols());
  for (int v : *plan.level_rows[0]) {
    for (std::int64_t c = 0; c < emb2.cols(); ++c) {
      emb2.data()[static_cast<std::size_t>(v * emb2.cols() + c)] += 0.7f;
    }
  }
  const nn::Tensor moved = model.forward(g, plan, emb2).state;

  double diff = 0.0;
  for (std::int64_t c = 0; c < base.cols(); ++c) {
    diff += std::abs(base.at(deep_node, c) - moved.at(deep_node, c));
  }
  EXPECT_GT(diff, 1e-12);  // influence decays over ~40 levels but must exist
}

void expect_tensor_bits_equal(const nn::Tensor& a, const nn::Tensor& b,
                              const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(a.data().size(), b.data().size()) << what;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size() * sizeof(float)),
            0)
      << what;
}

/// The taped level walk (training's forward and backward) must give
/// bit-identical values AND gradients at 1 and 8 threads. aes256 at 1/4
/// has levels wide enough (thousands of cell arcs) for the per-level ops
/// to split, which the 1/32 fixture designs do not.
TEST(DelayProp, TapedWalkBitIdenticalForwardAndBackwardAcrossThreadCounts) {
  const int saved_threads = num_threads();
  data::DatasetOptions options;
  options.scale = 1.0 / 4;
  options.truth_routing.mode = RouteMode::kSteiner;  // the maze router is slow
  const data::DatasetGraph g = data::build_design_graph(
      suite_entry("aes256", options.scale), testing::tiny_library(),
      options);
  const PropPlan plan = build_prop_plan(g);

  auto run = [&](int threads) {
    set_num_threads(threads);
    Rng rng(7);
    DelayProp model(8, tiny_prop(), rng);
    nn::Tensor emb = nn::Tensor::rand_uniform(g.num_nodes(), 8, 0.5f, rng, true);
    DelayProp::Output out = model.forward(g, plan, emb);
    nn::Tensor loss = nn::add(nn::sum_all(nn::mul(out.state, out.state)),
                              nn::sum_all(out.cell_delay));
    loss.backward();
    struct Run {
      DelayProp::Output out;
      std::vector<float> emb_grad;
      std::vector<std::vector<float>> param_grads;
    } r{std::move(out),
        {emb.grad().begin(), emb.grad().end()},
        {}};
    for (const nn::Tensor& p : model.parameters()) {
      nn::Tensor copy = p;
      r.param_grads.emplace_back(copy.grad().begin(), copy.grad().end());
    }
    return r;
  };

  const auto serial = run(1);
  const std::int64_t forked = forked_regions();
  const auto parallel = run(8);
  EXPECT_GT(forked_regions(), forked) << "the 8-thread walk never forked";
  set_num_threads(saved_threads);

  expect_tensor_bits_equal(serial.out.state, parallel.out.state, "state");
  expect_tensor_bits_equal(serial.out.cell_delay, parallel.out.cell_delay,
                           "cell_delay");
  ASSERT_EQ(serial.emb_grad.size(), parallel.emb_grad.size());
  EXPECT_EQ(std::memcmp(serial.emb_grad.data(), parallel.emb_grad.data(),
                        serial.emb_grad.size() * sizeof(float)),
            0)
      << "embedding gradient";
  ASSERT_EQ(serial.param_grads.size(), parallel.param_grads.size());
  for (std::size_t i = 0; i < serial.param_grads.size(); ++i) {
    ASSERT_EQ(serial.param_grads[i].size(), parallel.param_grads[i].size());
    EXPECT_EQ(std::memcmp(serial.param_grads[i].data(),
                          parallel.param_grads[i].data(),
                          serial.param_grads[i].size() * sizeof(float)),
              0)
        << "parameter gradient " << i;
  }
}

}  // namespace
}  // namespace tg::core
