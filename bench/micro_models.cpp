/// \file micro_models.cpp
/// Microbenchmarks for learned-model inference and training steps: the
/// net-embedding stage, the levelized delay propagation, a full TimingGnn
/// forward (the "Our GNN" runtime of Table 5), the tape-free serving
/// forward from a cached embedding, one training step, GCNII forward, and
/// random-forest batch prediction.
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
  state.SetItemsProcessed(state.iterations() * f.g().num_nodes);
}
BENCHMARK(BM_NetEmbedForward);

void BM_TimingGnnForward(benchmark::State& state) {
  const Fixture& f = fixture();
  const core::TimingGnn model(bench_cfg());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(f.g(), f.plan).atslew.data().data());
  }
  state.SetItemsProcessed(state.iterations() * f.g().num_nodes);
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
  state.SetItemsProcessed(state.iterations() * f.g().num_nodes);
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
