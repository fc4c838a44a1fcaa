/// \file probes.cpp
/// The traced run's layer probes: fixed work that times calls into each
/// layer's public functions from the benchmark's own code, each call in a
/// span named bench/<layer>.<call>. Every probe runs on every traced run, so
/// a traced run reports every per-layer metric whichever workload it traced.

#include <optional>
#include <string>
#include <vector>

#include "data/graph_pack.hpp"
#include "nn/alloc.hpp"
#include "nn/optim.hpp"
#include "pipeline.hpp"
#include "serve/server.hpp"
#include "streams.hpp"
#include "util/obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using tg::obs::kSpanCoarse;

/// Timings per call in the cold and mix probes; each reports the median.
constexpr int kReps = 3;
/// One-move incremental STA updates timed per ECO design.
constexpr int kEcoMoves = 40;
/// Length of the short serving phases the serve.* counters come from.
constexpr double kServeSeconds = 1.5;

void add(Metrics& out, std::string name, double value, const char* unit) {
  out.push_back(Metric{std::move(name), value, unit});
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median of kReps timings of `fn`, in ms.
template <typename Fn>
double median_ms(Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < kReps; ++r) ms.push_back(time_ms(fn));
  return median(ms);
}

/// Share of arena acquires that missed the free lists since the last
/// reset_alloc_stats().
double alloc_miss_frac() {
  const tg::nn::alloc::AllocStats s = tg::nn::alloc::alloc_stats();
  return ratio(static_cast<double>(s.misses),
               static_cast<double>(s.hits + s.misses));
}

/// Answers of the probe serving phases, for serve.shed_frac and
/// serve.degraded_frac.
struct ServeTally {
  double attempted = 0.0;
  double shed = 0.0;
  double degraded = 0.0;
};

/// A short serving phase of workload `name` on a fresh setup. Its
/// Workload::report numbers become per-layer metrics; `alloc_metric`, when
/// set, names the arena miss rate over the phase.
void serve_phase(const std::string& name, std::uint64_t seed, Metrics& out,
                 ServeTally& tally, const char* alloc_metric) {
  Ledger ledger(name);
  const std::unique_ptr<Workload> w = make_workload(name, seed, ledger);
  w->setup();
  tg::nn::alloc::reset_alloc_stats();
  (void)w->run(kServeSeconds);
  if (alloc_metric != nullptr) {
    add(out, alloc_metric, alloc_miss_frac(), "ratio");
  }
  w->report(out);
  tally.attempted += static_cast<double>(ledger.attempted());
  tally.shed += static_cast<double>(ledger.shed());
  tally.degraded += static_cast<double>(ledger.degraded());
}

/// The Table 5 path for each ladder design: every pipeline stage, the two
/// halves of the GNN, the serving plane's template build, and once the maze
/// route, the Table 5 denominator (never on the serving path).
void probe_cold(Metrics& out) {
  const Shape shape = enter_shape("cold_design");
  const tg::core::TimingGnn model(serve_model_config());
  for (const char* design : kLadder) {
    std::vector<StageMs> stages;
    std::vector<double> embed_ms, propagate_ms, template_ms;
    std::optional<BuiltDesign> built;
    for (int r = 0; r < kReps; ++r) {
      built = build_design(design, kLadderScale, 0.0);
      stages.push_back(built->ms);
      tg::nn::Tensor embedding;
      embed_ms.push_back(time_ms([&] {
        TG_TRACE_SCOPE("bench/core.embed", kSpanCoarse);
        embedding = model.embed(built->g);
      }));
      propagate_ms.push_back(time_ms([&] {
        TG_TRACE_SCOPE("bench/core.propagate", kSpanCoarse);
        (void)model.forward_atslew(built->g, built->plan, embedding);
      }));
      tg::serve::ServeOptions options;
      options.workers = shape.server_workers;
      tg::serve::SlackServer server(options);
      template_ms.push_back(time_ms([&] {
        TG_TRACE_SCOPE("bench/serve.template_build", kSpanCoarse);
        (void)server.open_session(design, kLadderScale, 0.0);
      }));
    }
    const double maze_ms = time_ms([&] {
      TG_TRACE_SCOPE("bench/route.maze", kSpanCoarse);
      (void)tg::route_design(*built->design, tg::RoutingOptions{});
    });
    const auto stage = [&](double StageMs::*field) {
      std::vector<double> v;
      for (const StageMs& s : stages) v.push_back(s.*field);
      return median(v);
    };
    const std::string at = std::string(".") + design;
    const double sta_ms = stage(&StageMs::sta);
    const double gnn_ms = median(embed_ms) + median(propagate_ms);
    add(out, "gen.generate_ms" + at, stage(&StageMs::generate), "ms");
    add(out, "place.place_ms" + at, stage(&StageMs::place), "ms");
    add(out, "route.steiner_ms" + at, stage(&StageMs::steiner), "ms");
    add(out, "route.maze_ms" + at, maze_ms, "ms");
    add(out, "sta.graph_build_ms" + at, stage(&StageMs::graph_build), "ms");
    add(out, "sta.full_ms" + at, sta_ms, "ms");
    add(out, "data.extract_ms" + at, stage(&StageMs::extract), "ms");
    add(out, "core.plan_ms" + at, stage(&StageMs::plan), "ms");
    add(out, "core.embed_ms" + at, median(embed_ms), "ms");
    add(out, "core.propagate_ms" + at, median(propagate_ms), "ms");
    // Table 5 as ledger numbers: what a prediction costs next to the STA it
    // imitates, and next to route + STA.
    add(out, "core.gnn_over_sta" + at, ratio(gnn_ms, sta_ms), "ratio");
    add(out, "core.gnn_over_route_sta" + at,
        ratio(gnn_ms, maze_ms + sta_ms), "ratio");
    add(out, "serve.template_build_ms" + at, median(template_ms), "ms");
  }
}

/// predict_mix's layers outside the server: packing the 12 templates, the
/// packed forward and the solo forwards; then a short serving phase for the
/// batching and pack-cache counters and the arena's miss rate.
void probe_mix(std::uint64_t seed, Metrics& out, ServeTally& tally) {
  (void)enter_shape("predict_mix");
  const tg::core::TimingGnn model(serve_model_config());
  std::vector<BuiltDesign> parts;
  for (const double clock : kMixCorners) {
    for (const char* design : kMixDesigns) {
      parts.push_back(build_design(design, kSmallScale, clock));
    }
  }
  std::vector<const tg::data::DatasetGraph*> graphs;
  for (const BuiltDesign& b : parts) graphs.push_back(&b.g);
  tg::data::GraphPack pack;
  add(out, "data.pack_ms", median_ms([&] {
        TG_TRACE_SCOPE("bench/data.pack", kSpanCoarse);
        pack = tg::data::pack_graphs(graphs);
      }),
      "ms");
  const tg::core::PropPlan plan = tg::core::build_prop_plan(pack.g);
  const tg::nn::Tensor embedding = model.embed(pack.g);
  add(out, "core.propagate_packed_ms", median_ms([&] {
        TG_TRACE_SCOPE("bench/core.propagate_packed", kSpanCoarse);
        (void)model.forward_atslew(pack.g, plan, embedding);
      }),
      "ms");
  std::vector<double> solo_ms;
  for (const BuiltDesign& b : parts) {
    const tg::nn::Tensor e = model.embed(b.g);
    solo_ms.push_back(median_ms([&] {
      TG_TRACE_SCOPE("bench/core.propagate", kSpanCoarse);
      (void)model.forward_atslew(b.g, b.plan, e);
    }));
  }
  add(out, "core.propagate_ms.mix", mean(solo_ms), "ms");
  serve_phase("predict_mix", seed, out, tally, "nn.alloc_miss_frac.mix");
}

/// eco_stream's layers outside the server: one-move IncrementalTimer
/// updates on the ECO designs, then the uncached read path (extract, plan,
/// embed, propagate) on each mutated design; then a short serving phase for
/// the tier split and the read latency.
void probe_eco(std::uint64_t seed, Metrics& out, ServeTally& tally) {
  (void)enter_shape("eco_stream");
  const tg::core::TimingGnn model(serve_model_config());
  std::vector<double> update_ms, cone_pins, extract_ms, plan_ms, embed_ms,
      propagate_ms;
  int session = 0;
  for (const char* design : kEcoDesigns) {
    BuiltDesign b = build_design(design, kSmallScale, kEcoClock);
    tg::IncrementalTimer timer(*b.graph, b.routing.get());
    EcoStream stream(seed, session++, resize_choices(*b.design),
                     /*read_every=*/0);
    for (int m = 0; m < kEcoMoves; ++m) {
      const EcoStep step = stream.next();
      apply_resize(*b.design, *b.routing, timer, step.inst, step.new_cell);
      update_ms.push_back(time_ms([&] {
        TG_TRACE_SCOPE("bench/sta.incremental", kSpanCoarse);
        (void)timer.update();
      }));
      cone_pins.push_back(static_cast<double>(timer.last_update_cone()));
    }
    tg::data::DatasetGraph g;
    tg::core::PropPlan plan;
    tg::nn::Tensor embedding;
    extract_ms.push_back(time_ms([&] {
      TG_TRACE_SCOPE("bench/data.extract", kSpanCoarse);
      g = tg::data::extract_graph(*b.design, *b.graph, *b.routing,
                                  timer.result());
    }));
    plan_ms.push_back(time_ms([&] {
      TG_TRACE_SCOPE("bench/core.plan", kSpanCoarse);
      plan = tg::core::build_prop_plan(g);
    }));
    embed_ms.push_back(time_ms([&] {
      TG_TRACE_SCOPE("bench/core.embed", kSpanCoarse);
      embedding = model.embed(g);
    }));
    propagate_ms.push_back(time_ms([&] {
      TG_TRACE_SCOPE("bench/core.propagate", kSpanCoarse);
      (void)model.forward_atslew(g, plan, embedding);
    }));
  }
  add(out, "sta.incremental_ms", median(update_ms), "ms");
  add(out, "sta.cone_pins", median(cone_pins), "count");
  add(out, "data.extract_ms.eco", mean(extract_ms), "ms");
  add(out, "core.plan_ms.eco", mean(plan_ms), "ms");
  add(out, "core.embed_ms.eco", mean(embed_ms), "ms");
  add(out, "core.propagate_ms.eco", mean(propagate_ms), "ms");
  serve_phase("eco_stream", seed, out, tally, nullptr);
}

/// train's layers: the training forward (auxiliary heads included),
/// backward and Adam step timed per design step, and the arena's miss rate
/// and high-water mark over the timed steps.
void probe_train(std::uint64_t seed, Metrics& out) {
  (void)enter_shape("train");
  const tg::data::SuiteDataset dataset = build_train_dataset(seed);
  tg::core::TimingGnn model(train_model_config());
  tg::nn::Adam adam(model.parameters(),
                    tg::nn::AdamConfig{.lr = 2e-3f, .grad_clip = 5.0f});
  std::vector<tg::core::PropPlan> plans;
  for (const tg::data::DatasetGraph& g : dataset.graphs) {
    plans.push_back(tg::core::build_prop_plan(g));
  }
  std::vector<double> forward_ms, backward_ms, adam_ms;
  const auto epoch = [&](bool timed) {
    for (const int id : dataset.train_ids) {
      const tg::data::DatasetGraph& g =
          dataset.graphs[static_cast<std::size_t>(id)];
      const tg::core::PropPlan& plan = plans[static_cast<std::size_t>(id)];
      adam.zero_grad();
      tg::core::TimingGnn::Prediction pred;
      const double f = time_ms([&] {
        TG_TRACE_SCOPE("bench/core.forward", kSpanCoarse);
        pred = model.forward(g, plan);
      });
      tg::nn::Tensor loss = model.loss(g, plan, pred);
      const double b = time_ms([&] {
        TG_TRACE_SCOPE("bench/nn.backward", kSpanCoarse);
        loss.backward();
      });
      const double s = time_ms([&] {
        TG_TRACE_SCOPE("bench/nn.adam_step", kSpanCoarse);
        adam.step();
      });
      if (timed) {
        forward_ms.push_back(f);
        backward_ms.push_back(b);
        adam_ms.push_back(s);
      }
    }
  };
  epoch(/*timed=*/false);  // warm-up: arena buckets
  tg::nn::alloc::reset_alloc_stats();
  epoch(/*timed=*/true);
  epoch(/*timed=*/true);
  add(out, "core.forward_ms", median(forward_ms), "ms");
  add(out, "nn.backward_ms", median(backward_ms), "ms");
  add(out, "nn.adam_step_ms", median(adam_ms), "ms");
  add(out, "nn.alloc_miss_frac.train", alloc_miss_frac(), "ratio");
  add(out, "nn.alloc_high_water_mb",
      static_cast<double>(tg::nn::alloc::alloc_stats().bytes_high_water) /
          (1024.0 * 1024.0),
      "MB");
}

}  // namespace

void run_layer_probes(std::uint64_t seed, Metrics& out) {
  ServeTally tally;
  probe_cold(out);
  probe_mix(seed, out, tally);
  probe_eco(seed, out, tally);
  probe_train(seed, out);
  add(out, "serve.shed_frac", ratio(tally.shed, tally.attempted), "ratio");
  add(out, "serve.degraded_frac", ratio(tally.degraded, tally.attempted),
      "ratio");
}

}  // namespace perfbench
