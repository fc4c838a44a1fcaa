#include "pipeline.hpp"

#include "gen/suite.hpp"
#include "liberty/library_builder.hpp"
#include "place/placer.hpp"
#include "route/rc_tree.hpp"
#include "route/steiner.hpp"
#include "util/obs/trace.hpp"

namespace perfbench {

using tg::obs::kSpanCoarse;

const tg::Library& library() {
  static const tg::Library lib = tg::build_library();
  return lib;
}

tg::core::TimingGnnConfig serve_model_config() {
  tg::core::TimingGnnConfig config;
  config.net.hidden = config.net.mlp_hidden = 8;
  config.prop.hidden = config.prop.mlp_hidden = 8;
  return config;
}

BuiltDesign build_design(const std::string& name, double scale,
                         double clock_factor) {
  const tg::SuiteEntry entry = tg::suite_entry(name, scale);
  BuiltDesign b;
  b.ms.generate = time_ms([&] {
    TG_TRACE_SCOPE("bench/gen.generate", kSpanCoarse);
    b.design = std::make_unique<tg::Design>(
        tg::generate_design(entry.spec, library()));
  });
  b.ms.place = time_ms([&] {
    TG_TRACE_SCOPE("bench/place.place", kSpanCoarse);
    tg::place_design(*b.design);
  });
  b.ms.steiner = time_ms([&] {
    TG_TRACE_SCOPE("bench/route.steiner", kSpanCoarse);
    tg::RoutingOptions steiner;
    steiner.mode = tg::RouteMode::kSteiner;
    b.routing = std::make_unique<tg::DesignRouting>(
        tg::route_design(*b.design, steiner));
  });
  b.ms.graph_build = time_ms([&] {
    TG_TRACE_SCOPE("bench/sta.graph_build", kSpanCoarse);
    b.graph = std::make_unique<tg::TimingGraph>(*b.design);
  });
  {
    // Clock calibration as the template build does it: one STA run sets the
    // period, and the timed run below re-times under it.
    const tg::StaResult warmup = tg::run_sta(*b.graph, *b.routing);
    const double factor =
        clock_factor > 0.0 ? clock_factor : entry.clock_factor;
    b.design->set_period(
        tg::calibrated_period(*b.design, warmup.arrival, factor));
  }
  b.ms.sta = time_ms([&] {
    TG_TRACE_SCOPE("bench/sta.full", kSpanCoarse);
    b.sta = tg::run_sta(*b.graph, *b.routing);
  });
  b.ms.extract = time_ms([&] {
    TG_TRACE_SCOPE("bench/data.extract", kSpanCoarse);
    b.g = tg::data::extract_graph(*b.design, *b.graph, *b.routing, b.sta);
  });
  b.ms.plan = time_ms([&] {
    TG_TRACE_SCOPE("bench/core.plan", kSpanCoarse);
    b.plan = tg::core::build_prop_plan(b.g);
  });
  return b;
}

std::vector<double> reference_slacks(const tg::core::TimingGnn& model,
                                     const tg::data::DatasetGraph& g,
                                     const tg::core::PropPlan& plan) {
  const tg::core::TimingGnn::Prediction pred = model.forward(g, plan);
  std::vector<double> out;
  out.reserve(g.endpoints.size());
  for (const int ep : g.endpoints) {
    out.push_back(tg::core::predicted_endpoint_slack(g, pred.atslew, ep).setup);
  }
  return out;
}

std::vector<ResizeChoice> resize_choices(const tg::Design& design) {
  const tg::Library& lib = design.library();
  std::vector<ResizeChoice> out;
  for (int i = 0; i < design.num_instances(); ++i) {
    const int cell = design.instance(i).cell_id;
    const tg::CellType& type = lib.cell(cell);
    if (type.is_sequential) continue;
    std::vector<int> cells = lib.cells_of_function(type.function);
    if (cells.size() < 2) continue;
    out.push_back(ResizeChoice{i, cell, std::move(cells)});
  }
  return out;
}

void apply_resize(tg::Design& design, tg::DesignRouting& routing,
                  tg::IncrementalTimer& timer, int inst, int new_cell) {
  design.instance(inst).cell_id = new_cell;
  for (const tg::PinId pid : design.instance(inst).pins) {
    const tg::Pin& pin = design.pin(pid);
    if (pin.net == tg::kInvalidId || design.net(pin.net).is_clock) continue;
    if (!pin.drives_net) {
      routing.nets[static_cast<std::size_t>(pin.net)] = tg::extract_parasitics(
          design, pin.net, tg::build_net_steiner(design, pin.net));
    }
    timer.invalidate_net(pin.net);
  }
}

}  // namespace perfbench
