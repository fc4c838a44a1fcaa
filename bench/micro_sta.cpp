/// \file micro_sta.cpp
/// Microbenchmarks for the golden STA substrate: timing-graph build,
/// levelization, and full 4-corner propagation — the denominators of the
/// paper's Table-5 runtime comparison. The `--sweep` matrix crosses
/// design × threads, so the level walk's thread scaling is recorded in
/// BENCH_micro_sta.json.
///
///   micro_sta --scale=0.125      # design scale (default 1/16 of Table 1)
///
/// `--json` additionally embeds an "occupancy" section: per design, the
/// level count and a log2 histogram of nodes-per-level — the structural
/// quantity that decides whether a level's parallel_for pays for its
/// barrier (many narrow levels → the walk serializes).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen/suite.hpp"
#include "liberty/library_builder.hpp"
#include "micro_common.hpp"
#include "place/placer.hpp"
#include "sta/incremental.hpp"
#include "sta/paths.hpp"
#include "util/parallel.hpp"

namespace tg {
namespace {

/// Design scale shared by every bench in this file (--scale=X).
double g_scale = 1.0 / 16;

/// A deep-narrow stress design that is NOT in the Table-1 suite: long
/// adder/xor chains, tiny fanout, register-to-register depth ~8× the suite
/// designs. Its level profile (hundreds of levels a handful of nodes wide)
/// is the worst case for per-level barriers.
DesignSpec deepchain_spec(double scale) {
  DesignSpec spec;
  spec.name = "deepchain";
  spec.seed = 97;
  spec.target_nodes = static_cast<int>(128000 * scale);
  spec.target_endpoints = static_cast<int>(3200 * scale);
  spec.num_inputs = 32;
  spec.depth = 96;
  spec.max_fanout = 4;
  spec.w_random = 0.2;
  spec.w_adder = 2.0;
  spec.w_xor = 1.0;
  spec.w_mux = 0.2;
  spec.w_sbox = 0.1;
  spec.w_decoder = 0.0;
  return spec;
}

struct Prepared {
  Library lib;
  std::unique_ptr<Design> design;
  DesignRouting routing;
};

const Prepared& prepared(const char* name, double scale) {
  static std::map<std::string, std::unique_ptr<Prepared>> cache;
  const std::string key = std::string(name) + "@" + std::to_string(scale);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto p = std::make_unique<Prepared>();
    p->lib = build_library();
    const DesignSpec spec = std::string(name) == "deepchain"
                                ? deepchain_spec(scale)
                                : suite_entry(name, scale).spec;
    p->design = std::make_unique<Design>(generate_design(spec, p->lib));
    place_design(*p->design);
    RoutingOptions opts;
    opts.mode = RouteMode::kSteiner;
    p->routing = route_design(*p->design, opts);
    it = cache.emplace(key, std::move(p)).first;
  }
  return *it->second;
}

void BM_TimingGraphBuild(benchmark::State& state) {
  const Prepared& p = prepared("picorv32a", g_scale);
  for (auto _ : state) {
    TimingGraph graph(*p.design);
    benchmark::DoNotOptimize(graph.num_levels());
  }
  state.SetItemsProcessed(state.iterations() * p.design->num_pins());
}
BENCHMARK(BM_TimingGraphBuild);

/// Full 4-corner propagation; shared body of the BM_StaPropagation*
/// family and the sweep.
void run_propagation(benchmark::State& state, const char* design) {
  const Prepared& p = prepared(design, g_scale);
  const TimingGraph graph(*p.design);
  for (auto _ : state) {
    const StaResult sta = run_sta(graph, p.routing);
    benchmark::DoNotOptimize(sta.wns_setup);
  }
  state.SetItemsProcessed(state.iterations() * p.design->num_pins());
}

void BM_StaPropagation(benchmark::State& state) {
  run_propagation(state, "picorv32a");
}
BENCHMARK(BM_StaPropagation);

void BM_StaPropagationLarge(benchmark::State& state) {
  run_propagation(state, "aes256");
}
BENCHMARK(BM_StaPropagationLarge);

void BM_StaPropagationDeep(benchmark::State& state) {
  run_propagation(state, "deepchain");
}
BENCHMARK(BM_StaPropagationDeep);

void BM_WorstPaths(benchmark::State& state) {
  const Prepared& p = prepared("picorv32a", g_scale);
  const TimingGraph graph(*p.design);
  const StaResult sta = run_sta(graph, p.routing);
  for (auto _ : state) {
    benchmark::DoNotOptimize(worst_paths(graph, sta, 10).size());
  }
}
BENCHMARK(BM_WorstPaths);

/// Cost of re-timing after a single-net ECO, vs BM_StaPropagation's full
/// run on the same design.
void BM_IncrementalOneNet(benchmark::State& state) {
  Prepared& p = const_cast<Prepared&>(prepared("picorv32a", g_scale));
  const TimingGraph graph(*p.design);
  IncrementalTimer inc(graph, &p.routing);
  NetId net = 0;
  for (NetId n = 0; n < p.design->num_nets(); ++n) {
    if (!p.design->net(n).is_clock) {
      net = n;
      break;
    }
  }
  double factor = 1.1;
  for (auto _ : state) {
    for (auto& d : p.routing.nets[static_cast<std::size_t>(net)].sink_delay) {
      for (double& v : d) v *= factor;
    }
    // Exact inverse so the routing oscillates between two fixed states:
    // every iteration changes values, but no drift accumulates across
    // iterations (a drifting cone makes the measured work non-stationary
    // and the CI baseline comparison meaningless).
    factor = 1.0 / factor;
    inc.invalidate_net(net);
    benchmark::DoNotOptimize(inc.update());
  }
  state.SetItemsProcessed(state.iterations() * inc.last_update_cone());
}
BENCHMARK(BM_IncrementalOneNet);

void BM_NldmLookup(benchmark::State& state) {
  const Library lib = build_library();
  const CellType& cell = lib.cell(lib.find_cell("NAND2_X1"));
  const NldmLut& lut = cell.arcs[0].delay[corner_index(Mode::kLate, Trans::kRise)];
  Rng rng(1);
  std::vector<std::pair<double, double>> queries(1024);
  for (auto& [s, l] : queries) {
    s = rng.uniform(0.005, 0.7);
    l = rng.uniform(0.0005, 0.3);
  }
  for (auto _ : state) {
    double acc = 0.0;
    for (const auto& [s, l] : queries) acc += lut.lookup(s, l);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_NldmLookup);

/// The designs the sweep and the occupancy section cover: the two suite
/// anchors plus the deep-narrow stress case.
constexpr const char* kSweepDesigns[] = {"picorv32a", "aes256", "deepchain"};

/// --sweep: full-timer update across thread counts × designs — the
/// parallel-scaling regression matrix (see micro_common.hpp). Names are
/// `SWEEP_StaPropagation/<design>/threads:<t>`, so the sweep summary
/// prints one speedup line per design.
void register_sweep(const std::vector<int>& thread_counts) {
  for (const char* design : kSweepDesigns) {
    for (const int t : thread_counts) {
      const std::string name = std::string("SWEEP_StaPropagation/") + design +
                               "/threads:" + std::to_string(t);
      benchmark::RegisterBenchmark(
          name.c_str(), [design, t](benchmark::State& state) {
            set_num_threads(t);
            run_propagation(state, design);
          });
    }
  }
}

/// Per-design level-occupancy section for --json: level count plus a log2
/// nodes-per-level histogram (`width_hist[k]` = number of levels whose
/// width is in [2^k, 2^(k+1))). Deep designs put most levels in the low
/// buckets — exactly where per-level barriers stop scaling.
std::string occupancy_json() {
  std::string out = "\"occupancy\": {";
  bool first_design = true;
  for (const char* design : kSweepDesigns) {
    const Prepared& p = prepared(design, g_scale);
    const TimingGraph graph(*p.design);
    std::vector<long long> hist;
    long long max_width = 0;
    for (int l = 0; l < graph.num_levels(); ++l) {
      const auto width = static_cast<long long>(graph.level_pins(l).size());
      max_width = std::max(max_width, width);
      std::size_t bucket = 0;
      while ((1LL << (bucket + 1)) <= width) ++bucket;
      if (bucket >= hist.size()) hist.resize(bucket + 1, 0);
      ++hist[bucket];
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"pins\": %d, \"levels\": %d, "
                  "\"max_width\": %lld, \"mean_width\": %.1f, "
                  "\"width_hist_log2\": [",
                  first_design ? "" : ", ", design, graph.num_nodes(),
                  graph.num_levels(),
                  max_width,
                  graph.num_levels() > 0
                      ? static_cast<double>(graph.num_nodes()) /
                            static_cast<double>(graph.num_levels())
                      : 0.0);
    out += buf;
    for (std::size_t k = 0; k < hist.size(); ++k) {
      if (k > 0) out += ", ";
      out += std::to_string(hist[k]);
    }
    out += "]}";
    first_design = false;
  }
  out += "}";
  return out;
}

}  // namespace
}  // namespace tg

int main(int argc, char** argv) {
  // Strip the micro_sta-specific --scale flag before the shared driver
  // (and google-benchmark) see argv.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      const double s = std::atof(arg.c_str() + 8);
      if (s > 0.0) tg::g_scale = s;
      continue;
    }
    args.push_back(argv[i]);
  }
  return tg::bench_micro::run_micro_main(static_cast<int>(args.size()),
                                         args.data(), tg::register_sweep,
                                         tg::occupancy_json);
}
