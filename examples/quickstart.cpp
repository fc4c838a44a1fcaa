/// \file quickstart.cpp
/// Five-minute tour of the substrate: generate a benchmark circuit, place
/// it, route it (both the Steiner estimate and the ground-truth maze
/// route), run the golden 4-corner STA, print the worst setup path, and
/// finish with a pre-routing GNN inference preview.
///
///   ./quickstart [--design=spm] [--scale=0.0625]
///
/// Profiling: set TG_TRACE=trace.json (Perfetto timeline) and/or
/// TG_METRICS=metrics.json (counter/histogram snapshot), then inspect
/// either file with tools/tg_top. See README "Profiling a run".

#include <cstdio>

#include "core/timing_gnn.hpp"
#include "data/extract.hpp"
#include "gen/suite.hpp"
#include "liberty/library_builder.hpp"
#include "place/placer.hpp"
#include "sta/paths.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace tg;
  const CliOptions opts(argc, argv);
  opts.require_known({"design", "scale"});
  const std::string name = opts.get("design", "spm");
  const double scale = opts.get_double("scale", kDefaultSuiteScale);

  // 1. Library + design generation (stand-ins for SkyWater130 + OpenCores).
  const Library library = build_library();
  const SuiteEntry entry = suite_entry(name, scale);
  Design design = generate_design(entry.spec, library);
  const DesignStats stats = design.stats();
  std::printf("design %s: %lld pins, %lld net edges, %lld cell edges, %lld endpoints\n",
              design.name().c_str(), stats.num_nodes, stats.num_net_edges,
              stats.num_cell_edges, stats.num_endpoints);

  // 2. Placement.
  const PlacementReport placed = place_design(design);
  std::printf("placed: die %.0f x %.0f um, HPWL %.0f um\n", placed.die_width,
              placed.die_height, placed.total_hpwl);

  // 3. Routing: ground truth (maze) vs pre-routing estimate (Steiner).
  double maze_seconds = 0.0;
  RoutingOptions maze_opts;
  maze_opts.mode = RouteMode::kMaze;
  DesignRouting routed;
  {
    ScopedTimer t(&maze_seconds);
    routed = route_design(design, maze_opts);
  }
  std::printf("maze route: %.0f um wire, %d overflows, %.2f s\n",
              routed.total_wirelength, routed.overflow_edges, maze_seconds);

  RoutingOptions est_opts;
  est_opts.mode = RouteMode::kSteiner;
  const DesignRouting estimate = route_design(design, est_opts);
  std::printf("steiner estimate: %.0f um wire, %.3f s\n",
              estimate.total_wirelength, estimate.route_seconds);

  // 4. Golden STA on the routed design; calibrate the clock period the way
  //    the dataset pipeline does.
  TimingGraph graph(design);
  std::printf("timing graph: %zu net arcs, %zu cell arcs, %d levels\n",
              graph.net_arcs().size(), graph.cell_arcs().size(),
              graph.num_levels());
  StaResult sta = run_sta(graph, routed);
  design.set_period(calibrated_period(design, sta.arrival, entry.clock_factor));
  sta = run_sta(graph, routed);
  std::printf("STA: period %.3f ns, WNS(setup) %.4f ns, TNS %.4f, WNS(hold) %.4f, %.3f s\n",
              design.clock_period(), sta.wns_setup, sta.tns_setup,
              sta.wns_hold, sta.sta_seconds);

  // 5. Report the worst setup path.
  const auto paths = worst_paths(graph, sta, 1, /*setup=*/true);
  if (!paths.empty()) {
    std::fputs(format_path(design, sta, paths[0]).c_str(), stdout);
  }

  // 6. Pre-routing GNN preview: extract the dataset graph and run one
  //    (untrained) forward pass of the paper's model, so a single
  //    quickstart run exercises the full gen→place→route→sta→data→nn→core
  //    pipeline — and a TG_TRACE of it shows spans from every layer.
  const data::DatasetGraph g = data::extract_graph(design, graph, routed, sta);
  core::TimingGnnConfig gnn_config;
  gnn_config.net.hidden = 8;
  gnn_config.net.mlp_hidden = 8;
  gnn_config.prop.hidden = 8;
  gnn_config.prop.mlp_hidden = 8;
  core::TimingGnn gnn(gnn_config);
  const core::PropPlan plan = core::build_prop_plan(g);
  double infer_seconds = 0.0;
  core::TimingGnn::Prediction pred;
  {
    ScopedTimer t(&infer_seconds);
    pred = gnn.forward(g, plan);
  }
  std::printf(
      "GNN preview (untrained): %lld nodes -> atslew %lldx%lld in %.3f s\n",
      static_cast<long long>(g.num_nodes()),
      static_cast<long long>(pred.atslew.rows()),
      static_cast<long long>(pred.atslew.cols()), infer_seconds);
  return 0;
}
