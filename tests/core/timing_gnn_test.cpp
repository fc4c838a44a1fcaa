#include "core/timing_gnn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string>

#include "core/test_fixture.hpp"
#include "data/graph_pack.hpp"
#include "nn/alloc.hpp"
#include "nn/kernels.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"

namespace tg::core {
namespace {

TimingGnnConfig tiny_config(bool net_aux = true, bool cell_aux = true) {
  TimingGnnConfig cfg;
  cfg.net.hidden = 8;
  cfg.net.mlp_hidden = 8;
  cfg.net.mlp_layers = 1;
  cfg.net.num_layers = 2;
  cfg.prop.hidden = 8;
  cfg.prop.mlp_hidden = 8;
  cfg.prop.mlp_layers = 1;
  cfg.prop.lut.mlp_hidden = 8;
  cfg.prop.lut.mlp_layers = 1;
  cfg.use_net_aux = net_aux;
  cfg.use_cell_aux = cell_aux;
  return cfg;
}

/// The serving shape: the width-8 model the serving plane runs, with the
/// default two-layer MLPs and 32-wide LUT-coefficient MLPs.
TimingGnnConfig serving_config() {
  TimingGnnConfig cfg;
  cfg.net.hidden = 8;
  cfg.net.mlp_hidden = 8;
  cfg.prop.hidden = 8;
  cfg.prop.mlp_hidden = 8;
  return cfg;
}

/// Empty when `a` and `b` hold the same bits, else the first mismatch.
std::string first_bit_mismatch(const nn::Tensor& a, const nn::Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return "shape mismatch";
  const auto av = a.data();
  const auto bv = b.data();
  for (std::size_t i = 0; i < av.size(); ++i) {
    if (std::memcmp(&av[i], &bv[i], sizeof(float)) != 0) {
      std::ostringstream os;
      os << "element " << i << ": " << std::setprecision(9) << av[i]
         << " vs " << bv[i];
      return os.str();
    }
  }
  return "";
}

TEST(TimingGnn, ForwardShapes) {
  const TimingGnn model(tiny_config());
  const auto& g = testing::train_graph();
  const PropPlan plan = build_prop_plan(g);
  const TimingGnn::Prediction pred = model.forward(g, plan);
  EXPECT_EQ(pred.atslew.rows(), g.num_nodes());
  EXPECT_EQ(pred.atslew.cols(), 2 * kNumCorners);
  EXPECT_EQ(pred.net_delay.rows(), g.num_nodes());
  EXPECT_EQ(pred.cell_delay.rows(),
            static_cast<std::int64_t>(g.topo->cell_src().size()));
}

TEST(TimingGnn, InferenceFastPathMatchesTrainingForward) {
  // The serving plane answers from forward_atslew (cached embedding, no
  // auxiliary heads); it must produce bit-identical arrival/slew to the
  // full training forward.
  const TimingGnn model(tiny_config());
  const auto& g = testing::train_graph();
  const PropPlan plan = build_prop_plan(g);
  const TimingGnn::Prediction pred = model.forward(g, plan);
  const nn::Tensor emb = model.embed(g);
  const nn::Tensor fast = model.forward_atslew(g, plan, emb);
  ASSERT_EQ(fast.rows(), pred.atslew.rows());
  ASSERT_EQ(fast.cols(), pred.atslew.cols());
  for (std::int64_t r = 0; r < fast.rows(); ++r) {
    for (std::int64_t c = 0; c < fast.cols(); ++c) {
      EXPECT_EQ(fast.at(r, c), pred.atslew.at(r, c)) << "r=" << r << " c=" << c;
    }
  }
}

/// The inference entry points are tape-free: once forward_atslew returns,
/// every intermediate is released and only the output stays live (a taped
/// output would keep the whole propagation tape reachable through its
/// parents). forward_atslew takes the fused step; the evaluate paths run
/// the full op-chain forward under a NoGradGuard. A threaded run that
/// recorded the tape would keep every level's intermediates alive until
/// the forward returns, which shows up as a transient peak far above the
/// serial walk's.
TEST(TimingGnn, InferenceEntryPointsLeaveOnlyTheOutputLive) {
  const int saved_threads = num_threads();
  const TimingGnn model(tiny_config());
  const auto& g = testing::train_graph();
  const PropPlan plan = build_prop_plan(g);
  const nn::Tensor emb = model.embed(g);
  EXPECT_FALSE(emb.requires_grad());
  EXPECT_TRUE(emb.impl()->parents.empty());

  const auto fused = [&] { return model.forward_atslew(g, plan, emb); };
  const auto evaluate = [&] {
    const nn::NoGradGuard no_grad;
    return model.forward(g, plan).atslew;
  };
  // Runs `reps` inference forwards; checks what each leaves live and
  // returns the largest transient peak above the pre-call live set.
  auto run = [&](const auto& forward, int threads, int reps) {
    SCOPED_TRACE(threads);
    set_num_threads(threads);
    (void)forward();  // warm any lazy caches
    std::int64_t peak = 0;
    for (int i = 0; i < reps; ++i) {
      nn::alloc::reset_alloc_stats();
      const auto before =
          static_cast<std::int64_t>(nn::alloc::alloc_stats().bytes_live);
      const nn::Tensor out = forward();
      const nn::alloc::AllocStats s = nn::alloc::alloc_stats();
      EXPECT_FALSE(out.requires_grad());
      EXPECT_TRUE(out.impl()->parents.empty());
      EXPECT_LE(static_cast<std::int64_t>(s.bytes_live) - before,
                static_cast<std::int64_t>(nn::alloc::bucket_bytes(
                    static_cast<std::size_t>(out.numel()) * sizeof(float))));
      peak = std::max(
          peak, static_cast<std::int64_t>(s.bytes_high_water) - before);
    }
    EXPECT_TRUE(nn::grad_enabled());  // the guard is scoped to the call
    return peak;
  };
  for (const int threads : {1, 4, 8}) (void)run(fused, threads, 2);
  const std::int64_t serial_peak = run(evaluate, 1, 1);
  for (const int threads : {4, 8}) {
    EXPECT_LE(run(evaluate, threads, 4), 2 * serial_peak)
        << "the evaluate forward at " << threads
        << " threads recorded the tape (serial peak " << serial_peak
        << " B)";
  }
  set_num_threads(saved_threads);
}

/// The fused inference step (forward_atslew) against the taped op-chain
/// walk (forward().atslew), bit for bit, across every axis that could
/// perturb either: plain and packed graphs, 1 and 4 threads, dispatched
/// and portable kernels, and the 1-hidden-layer test model and the serving
/// shape. The graphs include levels
/// whose net feed or cell feed is empty, and levels wide enough to span
/// several of the fused step's MLP blocks.
TEST(TimingGnn, FusedInferenceBitIdenticalToOpChain) {
  const int saved_threads = num_threads();

  data::DatasetOptions options;
  options.scale = 1.0 / 32;
  const data::DatasetGraph xtea = data::build_design_graph(
      suite_entry("xtea", options.scale), testing::tiny_library(), options);
  const data::GraphPack pack = data::pack_graphs(
      {&testing::train_graph(), &testing::test_graph(), &xtea});
  ASSERT_EQ(pack.num_graphs, 3);

  const std::pair<const char*, const data::DatasetGraph*> graphs[] = {
      {"train_graph", &testing::train_graph()}, {"pack3", &pack.g}};
  for (const auto& [graph_name, gp] : graphs) {
    const data::DatasetGraph& g = *gp;
    const PropPlan plan = build_prop_plan(g);
    int no_net = 0, no_cell = 0;
    std::size_t widest = 0;
    for (int l = 1; l < plan.num_levels; ++l) {
      const auto lu = static_cast<std::size_t>(l);
      no_net += plan.net_feed[lu].src_t->empty();
      no_cell += plan.cell_feed[lu].src_t->empty();
      widest = std::max({widest, plan.net_feed[lu].src_t->size(),
                         plan.cell_feed[lu].src_t->size()});
    }
    EXPECT_GT(no_net, 0) << graph_name << " has no net-free level";
    EXPECT_GT(no_cell, 0) << graph_name << " has no cell-free level";
    // The fused step runs edges through each MLP in blocks of 32 rows; a
    // feed this wide makes a level span several blocks.
    EXPECT_GT(widest, 64u) << graph_name << " has no multi-block level";

    for (const bool serving : {false, true}) {
      const TimingGnn model(serving ? serving_config() : tiny_config());
      for (const bool portable : {false, true}) {
        nn::kern::set_force_portable(portable);
        for (const int threads : {1, 4}) {
          set_num_threads(threads);
          const nn::Tensor emb = model.embed(g);
          const nn::Tensor fused = model.forward_atslew(g, plan, emb);
          const nn::Tensor chain = model.forward(g, plan).atslew;
          EXPECT_EQ(first_bit_mismatch(fused, chain), "")
              << graph_name << (serving ? " serving" : " tiny")
              << (portable ? " portable" : " dispatched")
              << " threads=" << threads;
        }
      }
    }
  }
  nn::kern::set_force_portable(false);
  set_num_threads(saved_threads);
}

/// Serve deadlines reach propagation through the level-boundary
/// checkpoint: under an already-expired budget both walks stop with a
/// deadline CancelError, and the unwind releases everything they
/// acquired from the arena.
TEST(TimingGnn, PropagationStopsOnExpiredDeadline) {
  const TimingGnn model(tiny_config());
  const auto& g = testing::train_graph();
  const PropPlan plan = build_prop_plan(g);
  ASSERT_GT(plan.num_levels, 1);
  const nn::Tensor emb = model.embed(g);
  (void)model.forward_atslew(g, plan, emb);  // warm any lazy caches

  auto expect_deadline = [&](const char* what, const auto& run) {
    SCOPED_TRACE(what);
    const std::uint64_t live_before = nn::alloc::alloc_stats().bytes_live;
    {
      const CancelSource source =
          CancelSource::with_budget(std::chrono::nanoseconds(1));
      const ScopedCancel ambient(source.token());
      try {
        run();
        ADD_FAILURE() << "expected CancelError";
      } catch (const CancelError& e) {
        EXPECT_EQ(e.reason(), CancelReason::kDeadline);
      }
    }
    EXPECT_EQ(nn::alloc::alloc_stats().bytes_live, live_before);
  };
  expect_deadline("fused forward_atslew",
                  [&] { (void)model.forward_atslew(g, plan, emb); });
  expect_deadline("taped forward", [&] { (void)model.forward(g, plan); });
}

TEST(TimingGnn, LossFiniteAndPositive) {
  const TimingGnn model(tiny_config());
  const auto& g = testing::train_graph();
  const PropPlan plan = build_prop_plan(g);
  const auto pred = model.forward(g, plan);
  const nn::Tensor loss = model.loss(g, plan, pred);
  EXPECT_TRUE(std::isfinite(loss.item()));
  EXPECT_GT(loss.item(), 0.0f);
}

TEST(TimingGnn, AblationsReduceLossTerms) {
  // Full loss ≥ loss with an auxiliary term disabled (same predictions).
  const TimingGnnConfig full_cfg = tiny_config(true, true);
  const TimingGnn full(full_cfg);
  const auto& g = testing::train_graph();
  const PropPlan plan = build_prop_plan(g);
  const auto pred = full.forward(g, plan);
  const float l_full = full.loss(g, plan, pred).item();

  TimingGnnConfig no_aux_cfg = tiny_config(false, false);
  const TimingGnn no_aux(no_aux_cfg);  // same seed → same weights
  const float l_main = no_aux.loss(g, plan, pred).item();
  EXPECT_GT(l_full, l_main);
}

TEST(TimingGnn, SameSeedSameWeights) {
  const TimingGnn a(tiny_config());
  const TimingGnn b(tiny_config());
  ASSERT_EQ(a.parameters().size(), b.parameters().size());
  for (std::size_t i = 0; i < a.parameters().size(); ++i) {
    const auto av = a.parameters()[i].data();
    const auto bv = b.parameters()[i].data();
    for (std::size_t j = 0; j < av.size(); j += 13) {
      EXPECT_EQ(av[j], bv[j]);
    }
  }
}

TEST(TimingGnn, BackwardTouchesEverything) {
  TimingGnn model(tiny_config());
  const auto& g = testing::train_graph();
  const PropPlan plan = build_prop_plan(g);
  const auto pred = model.forward(g, plan);
  model.loss(g, plan, pred).backward();
  int with_grad = 0;
  for (const nn::Tensor& p : model.parameters()) {
    nn::Tensor copy = p;
    double norm = 0.0;
    for (float v : copy.grad()) norm += std::abs(v);
    if (norm > 0.0) ++with_grad;
  }
  // Nearly all parameters get gradient (the final-layer merge of the cell
  // delay head included thanks to the aux loss).
  EXPECT_GE(with_grad, static_cast<int>(model.parameters().size()) - 2);
}

TEST(PredictedEndpointSlack, MatchesManualComputation) {
  const auto& g = testing::test_graph();
  ASSERT_FALSE(g.endpoints.empty());
  const int ep = g.endpoints[0];
  // Build a fake atslew where arrival = RAT - 0.25 at late corners and
  // arrival = RAT + 0.5 at early corners.
  std::vector<float> at(static_cast<std::size_t>(g.num_nodes()) * 8, 0.0f);
  for (int c = 0; c < kNumCorners; ++c) {
    const bool late = corner_mode(c) == Mode::kLate;
    at[static_cast<std::size_t>(ep * 8 + c)] =
        g.rat.at(ep, c) + (late ? -0.25f : 0.5f);
  }
  nn::Tensor atslew = nn::Tensor::from_vector(std::move(at), g.num_nodes(), 8);
  const EndpointSlack s = predicted_endpoint_slack(g, atslew, ep);
  EXPECT_NEAR(s.setup, 0.25, 1e-5);
  EXPECT_NEAR(s.hold, 0.5, 1e-5);
}

}  // namespace
}  // namespace tg::core
