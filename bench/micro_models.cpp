/// \file micro_models.cpp
/// Microbenchmarks for learned-model inference and training steps: the
/// net-embedding stage (taped, and the serving embedding against its
/// op-chain twin), the levelized delay propagation, a full TimingGnn
/// forward (the "Our GNN" runtime of Table 5), the tape-free serving
/// forward from a cached embedding, an ECO session's incremental GNN read
/// against a full one, one training step, GCNII forward, and random-forest
/// batch prediction.
///
///   micro_models --selfcheck   # CI mode: runs warm-up train steps and
///                              # inference forwards, then hard-fails
///                              # unless each phase's steady-state
///                              # allocator miss rate is ~0 (alloc/miss)
///   micro_models --json        # BENCH_micro_models.json for perf diffs

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/trainer.hpp"
#include "data/extract.hpp"
#include "gen/suite.hpp"
#include "place/placer.hpp"
#include "liberty/library_builder.hpp"
#include "micro_common.hpp"
#include "ml/net_features.hpp"
#include "ml/random_forest.hpp"
#include "nn/alloc.hpp"

namespace tg {
namespace {

core::TimingGnnConfig bench_cfg() {
  core::TimingGnnConfig cfg;
  cfg.net.hidden = 16;
  cfg.net.mlp_hidden = 16;
  cfg.prop.hidden = 16;
  cfg.prop.mlp_hidden = 16;
  return cfg;
}

/// The serving plane's model shape.
core::TimingGnnConfig serving_cfg() {
  core::TimingGnnConfig cfg;
  cfg.net.hidden = 8;
  cfg.net.mlp_hidden = 8;
  cfg.prop.hidden = 8;
  cfg.prop.mlp_hidden = 8;
  return cfg;
}

struct Fixture {
  Library lib = build_library();
  data::SuiteDataset ds;
  core::PropPlan plan;

  Fixture() {
    data::DatasetOptions options;
    options.scale = 1.0 / 16;
    ds = data::build_suite_dataset(lib, options, {"picorv32a"});
    plan = core::build_prop_plan(ds.graphs[0]);
  }
  [[nodiscard]] const data::DatasetGraph& g() const { return ds.graphs[0]; }
};

const Fixture& fixture() {
  static Fixture* f = new Fixture();
  return *f;
}

void BM_NetEmbedForward(benchmark::State& state) {
  const Fixture& f = fixture();
  Rng rng(1);
  const core::NetEmbed model(
      core::NetEmbedConfig{.hidden = 16, .mlp_hidden = 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(f.g()).data().data());
  }
  state.SetItemsProcessed(state.iterations() * f.g().num_nodes());
}
BENCHMARK(BM_NetEmbedForward);

/// aes256 at 1/16 with Steiner truth routing, as the serving plane builds
/// its templates: the cold_design workload's largest design.
const data::DatasetGraph& aes_graph() {
  static const data::DatasetGraph* g = [] {
    static const Library lib = build_library();
    data::DatasetOptions options;
    options.scale = 1.0 / 16;
    options.truth_routing.mode = RouteMode::kSteiner;
    return new data::DatasetGraph(data::build_design_graph(
        suite_entry("aes256", options.scale), lib, options));
  }();
  return *g;
}

/// The serving embedding (TimingGnn::embed: NetEmbed::embed_nets over
/// every net) at the serving width, against its op-chain twin below: the
/// taped NetEmbed::forward run tape-free, what embed ran before it was
/// fused. ci/run.sh bench gates the pair within one run.
void BM_NetEmbedInfer(benchmark::State& state) {
  const data::DatasetGraph& g = aes_graph();
  const core::TimingGnn model(serving_cfg());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.embed(g).data().data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_NetEmbedInfer);

void BM_NetEmbedInferOpChain(benchmark::State& state) {
  const data::DatasetGraph& g = aes_graph();
  const core::TimingGnn model(serving_cfg());
  const nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.net_embed().forward(g).data().data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_NetEmbedInferOpChain);

void BM_TimingGnnForward(benchmark::State& state) {
  const Fixture& f = fixture();
  const core::TimingGnn model(bench_cfg());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(f.g(), f.plan).atslew.data().data());
  }
  state.SetItemsProcessed(state.iterations() * f.g().num_nodes());
}
BENCHMARK(BM_TimingGnnForward);

/// The serving path: the net embedding is computed once (it is cached per
/// template when serving), then only the tape-free propagation + head
/// forward is timed.
void BM_TimingGnnInfer(benchmark::State& state) {
  const Fixture& f = fixture();
  const core::TimingGnn model(bench_cfg());
  const nn::Tensor embedding = model.embed(f.g());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.forward_atslew(f.g(), f.plan, embedding).data().data());
  }
  state.SetItemsProcessed(state.iterations() * f.g().num_nodes());
}
BENCHMARK(BM_TimingGnnInfer);

void BM_TimingGnnTrainStep(benchmark::State& state) {
  const Fixture& f = fixture();
  core::TimingGnn model(bench_cfg());
  nn::Adam adam(model.parameters(), nn::AdamConfig{.lr = 1e-3f});
  for (auto _ : state) {
    adam.zero_grad();
    const auto pred = model.forward(f.g(), f.plan);
    nn::Tensor loss = model.loss(f.g(), f.plan, pred);
    loss.backward();
    adam.step();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_TimingGnnTrainStep);

void BM_GcniiForward(benchmark::State& state) {
  const Fixture& f = fixture();
  core::GcniiConfig cfg;
  cfg.num_layers = static_cast<int>(state.range(0));
  cfg.hidden = 16;
  const core::Gcnii model(cfg);
  const core::GcniiAdjacency adj = core::build_gcnii_adjacency(f.g());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(f.g(), adj).data().data());
  }
}
BENCHMARK(BM_GcniiForward)->Arg(4)->Arg(16);

void BM_ForestPredict(benchmark::State& state) {
  const Fixture& f = fixture();
  const ml::NetFeatureSet fs =
      ml::extract_net_features(*f.g().design, *f.g().truth_routing);
  ml::RandomForest forest;
  ml::ForestConfig cfg;
  cfg.num_trees = 40;
  const int lr = corner_index(Mode::kLate, Trans::kRise);
  const auto y = fs.target_corner(lr);
  forest.fit(fs.matrix(), y, cfg);
  std::vector<float> out(fs.rows);
  for (auto _ : state) {
    forest.predict_batch(fs.matrix(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * fs.rows);
}
BENCHMARK(BM_ForestPredict);

/// An ECO session's GNN read (DESIGN.md §12): picorv32a at 1/32, serving
/// model width, 7 seeded same-function resizes per read. Each iteration
/// toggles the 7 instances between their original and resized cells, then
/// reads:
///  - `cone`: patch the moved rows in place, re-embed the touched nets,
///    re-propagate the dirty cone (data::patch_instances + TimingGnn::read);
///  - `full`: what the read cost before it was incremental — extract,
///    plan, embed and forward_atslew over the whole design.
/// ci/run.sh bench gates cone/full within one run.
struct EcoFixture {
  Library lib = build_library();
  Design design{"", &lib};
  DesignRouting routing;
  std::unique_ptr<TimingGraph> graph;
  StaResult sta;
  std::vector<InstId> insts;
  std::vector<int> cells[2];  ///< original / resized cell per instance

  EcoFixture() {
    const SuiteEntry entry = suite_entry("picorv32a", 1.0 / 32);
    design = generate_design(entry.spec, lib);
    place_design(design);
    RoutingOptions route_opts;
    route_opts.mode = RouteMode::kSteiner;
    routing = route_design(design, route_opts);
    graph = std::make_unique<TimingGraph>(design);
    sta = run_sta(*graph, routing);
    Rng rng(7);
    while (insts.size() < 7) {
      const auto inst = static_cast<InstId>(
          rng.uniform_int(0, design.num_instances() - 1));
      const int cell = design.instance(inst).cell_id;
      const std::vector<int> alts =
          lib.cells_of_function(lib.cell(cell).function);
      if (alts.size() < 2 ||
          std::find(insts.begin(), insts.end(), inst) != insts.end()) {
        continue;
      }
      insts.push_back(inst);
      cells[0].push_back(cell);
      cells[1].push_back(alts[alts.front() == cell ? 1 : 0]);
    }
  }

  /// Moves every instance to its original (0) or resized (1) cell.
  void toggle(int side) {
    for (std::size_t i = 0; i < insts.size(); ++i) {
      design.instance(insts[i]).cell_id = cells[side][i];
    }
  }
};

void BM_EcoGnnRead(benchmark::State& state, bool cone) {
  static EcoFixture* f = new EcoFixture();
  const core::TimingGnn model(serving_cfg());
  f->toggle(0);
  data::DatasetGraph g =
      data::extract_graph(f->design, *f->graph, f->routing, f->sta);
  const core::PropPlan plan = core::build_prop_plan(g);
  core::ReadCache cache;
  cache.embedding = model.embed(g);
  (void)model.read(g, plan, g.endpoints, data::GraphDelta{}, /*full=*/true,
                   cache);
  int side = 0;
  std::int64_t rows = 0;
  for (auto _ : state) {
    side ^= 1;
    f->toggle(side);
    if (cone) {
      const data::GraphDelta delta =
          data::patch_instances(g, *f->graph, f->insts);
      rows += model.read(g, plan, g.endpoints, delta, /*full=*/false, cache);
      benchmark::DoNotOptimize(cache.slack.data());
    } else {
      const data::DatasetGraph fresh =
          data::extract_graph(f->design, *f->graph, f->routing, f->sta);
      const core::PropPlan fresh_plan = core::build_prop_plan(fresh);
      const nn::Tensor atslew =
          model.forward_atslew(fresh, fresh_plan, model.embed(fresh));
      double wns = 0.0;
      for (const int ep : fresh.endpoints) {
        wns = std::min(wns,
                       core::predicted_endpoint_slack(fresh, atslew, ep).setup);
      }
      benchmark::DoNotOptimize(wns);
      rows += fresh.num_nodes();
    }
  }
  f->toggle(0);
  state.counters["rows_per_read"] = benchmark::Counter(
      static_cast<double>(rows) / static_cast<double>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_EcoGnnRead, cone, true);
BENCHMARK_CAPTURE(BM_EcoGnnRead, full, false);

// ---- --selfcheck ---------------------------------------------------------

/// Acceptable steady-state allocator miss rate. After the warm-up steps
/// every per-step tensor acquire should be a free-list hit; the budget
/// tolerates a handful of one-off stragglers without letting wholesale
/// malloc traffic pass.
constexpr double kMissRateBudget = 0.005;

/// Prints one steady-state phase's allocator counters and checks them
/// against kMissRateBudget. `min_acquires` is the least arena traffic the
/// phase must show (0 = any).
bool check_phase(const char* phase, int reps, std::uint64_t min_acquires) {
  const nn::alloc::AllocStats s = nn::alloc::alloc_stats();
  const std::uint64_t total = s.hits + s.misses;
  const double miss_rate =
      total > 0 ? static_cast<double>(s.misses) / static_cast<double>(total)
                : 0.0;
  std::printf(
      "# models selfcheck: %d steady-state %s, %llu acquires, "
      "%llu hits, %llu misses (rate %.5f, budget %.3f), high water %.1f MiB\n",
      reps, phase, static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.misses), miss_rate, kMissRateBudget,
      static_cast<double>(s.bytes_high_water) / (1024.0 * 1024.0));
  if (total == 0 || total < min_acquires) {
    std::fprintf(stderr,
                 "# models selfcheck FAILED: %s made %llu arena acquires, "
                 "expected at least %llu (scratch not taken from the "
                 "arena?)\n",
                 phase, static_cast<unsigned long long>(total),
                 static_cast<unsigned long long>(
                     std::max<std::uint64_t>(min_acquires, 1)));
    return false;
  }
  if (miss_rate > kMissRateBudget) {
    std::fprintf(stderr,
                 "# models selfcheck FAILED: steady-state miss rate %.5f "
                 "exceeds %.3f — %s hit the heap per call\n",
                 miss_rate, kMissRateBudget, phase);
    return false;
  }
  return true;
}

/// CI mode (bypasses google-benchmark): proves the steady-state claim of
/// the caching arena (DESIGN.md §10) on the real training loop — after a
/// few warm-up steps, further TimingGnn train steps run with alloc/miss
/// ≈ 0 because every tensor buffer is reused from the free lists — and
/// on the serving forward: repeated forward_atslew calls take the fused
/// DelayProp step's per-chunk scratch from the arena (at least one
/// acquire per level per call) and reuse it across levels and calls.
int run_selfcheck() {
  nn::alloc::set_alloc_mode(nn::alloc::Mode::kCache);
  const Fixture& f = fixture();
  core::TimingGnn model(bench_cfg());
  nn::Adam adam(model.parameters(), nn::AdamConfig{.lr = 1e-3f});
  auto step = [&] {
    adam.zero_grad();
    const auto pred = model.forward(f.g(), f.plan);
    nn::Tensor loss = model.loss(f.g(), f.plan, pred);
    loss.backward();
    adam.step();
    return loss.item();
  };
  for (int i = 0; i < 3; ++i) step();  // warm-up: populates the arena
  nn::alloc::reset_alloc_stats();
  constexpr int kSteps = 8;
  for (int i = 0; i < kSteps; ++i) step();
  if (!check_phase("train steps", kSteps, 0)) return 1;

  const nn::Tensor embedding = model.embed(f.g());
  auto infer = [&] {
    return model.forward_atslew(f.g(), f.plan, embedding).data()[0];
  };
  for (int i = 0; i < 3; ++i) infer();  // warm-up
  nn::alloc::reset_alloc_stats();
  constexpr int kCalls = 16;
  for (int i = 0; i < kCalls; ++i) infer();
  if (!check_phase("inference forwards", kCalls,
                   static_cast<std::uint64_t>(kCalls) *
                       static_cast<std::uint64_t>(f.plan.num_levels))) {
    return 1;
  }
  std::printf("# models selfcheck OK\n");
  return 0;
}

}  // namespace
}  // namespace tg

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selfcheck") == 0) return tg::run_selfcheck();
  }
  return tg::bench_micro::run_micro_main(argc, argv,
                                         [](const std::vector<int>&) {});
}
