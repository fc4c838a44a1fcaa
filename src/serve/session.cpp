#include "serve/session.hpp"

#include "gen/suite.hpp"
#include "liberty/library_builder.hpp"
#include "place/placer.hpp"
#include "route/rc_tree.hpp"
#include "route/steiner.hpp"
#include "util/check.hpp"
#include "util/obs/trace.hpp"

namespace tg::serve {

namespace {

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// The synthetic library is process-wide and immutable; templates and
/// sessions reference it, so it must outlive both — a function-local
/// static does.
const Library& serve_library() {
  static const Library lib = build_library();
  return lib;
}

}  // namespace

std::uint64_t physical_hash(const std::string& design, double scale) {
  std::uint64_t h = 14695981039346656037ULL;
  h = fnv1a(design.data(), design.size(), h);
  h = fnv1a(&scale, sizeof(scale), h);
  return h;
}

std::uint64_t design_hash(const std::string& design, double scale,
                          double clock_factor) {
  return fnv1a(&clock_factor, sizeof(clock_factor),
               physical_hash(design, scale));
}

std::shared_ptr<const SessionTemplate> TemplateCache::get_or_build(
    const std::string& design, double scale, double clock_factor) {
  const std::uint64_t key = design_hash(design, scale, clock_factor);
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = corners_.find(key);
  if (it != corners_.end()) return it->second;

  const SuiteEntry entry = suite_entry(design, scale);
  const double factor = clock_factor > 0.0 ? clock_factor : entry.clock_factor;
  auto corner = std::make_shared<SessionTemplate>();
  corner->clock_factor = clock_factor;

  const std::uint64_t phys_key = physical_hash(design, scale);
  const auto sibling = physical_.find(phys_key);
  if (sibling != physical_.end()) {
    // A later corner: the sibling's forward sweep re-swept under this
    // corner's period, and the physical graph with this corner's rat.
    TG_TRACE_SCOPE("serve/corner_build", obs::kSpanCoarse);
    const SessionTemplate& first = *sibling->second;
    const PhysicalTemplate& phys = *first.phys;
    corner->phys = first.phys;
    corner->sta = first.sta;
    corner->period =
        calibrated_period(phys.design, corner->sta.arrival, factor);
    sta_detail::compute_required(*phys.graph, StaOptions{}, corner->period,
                                 corner->sta);
    corner->g = phys.g;
    data::write_clock_rows(corner->g, corner->sta, corner->period);
  } else {
    TG_TRACE_SCOPE("serve/template_build", obs::kSpanCoarse);
    auto phys = std::make_shared<PhysicalTemplate>(serve_library());
    phys->key = phys_key;
    phys->design_name = design;
    phys->scale = scale;
    phys->design = generate_design(entry.spec, serve_library());
    place_design(phys->design);

    RoutingOptions route_opts;
    route_opts.mode = RouteMode::kSteiner;
    phys->routing = route_design(phys->design, route_opts);

    phys->graph = std::make_unique<TimingGraph>(phys->design);
    corner->sta = run_sta(*phys->graph, phys->routing);
    corner->period =
        calibrated_period(phys->design, corner->sta.arrival, factor);
    // The period reaches only the endpoints' required times: the backward
    // sweep under it leaves what a second run_sta would, bit for bit.
    sta_detail::compute_required(*phys->graph, StaOptions{}, corner->period,
                                 corner->sta);
    data::DatasetGraph g = data::extract_graph(phys->design, *phys->graph,
                                               phys->routing, corner->sta);
    if (lut_table_ == nullptr) {
      lut_table_ = g.lut_table;
    } else {
      TG_CHECK_MSG(lut_table_->same_content(*g.lut_table),
                   "template " << design << " built a different LUT table");
      g.lut_table = lut_table_;
    }
    phys->plan = core::build_prop_plan(g);
    // The corner's graph takes the extracted clock rows; the physical
    // graph keeps the rest and shares its tensors with the corner's.
    corner->g = g;
    corner->g.clock_period = corner->period;
    phys->g = std::move(g);
    phys->g.rat = nn::Tensor();
    phys->g.clock_period = 0.0;
    phys->g.endpoint_setup_slack.clear();
    phys->g.endpoint_hold_slack.clear();
    corner->phys = std::move(phys);
    physical_.emplace(phys_key, corner);
  }
  corners_.emplace(key, corner);
  return corner;
}

std::uint64_t TemplateCache::physical_builds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return physical_.size();
}

std::uint64_t StaleEntry::compute_checksum() const {
  std::uint64_t h = 14695981039346656037ULL;
  h = fnv1a(&wns_setup, sizeof(wns_setup), h);
  h = fnv1a(&tns_setup, sizeof(tns_setup), h);
  h = fnv1a(&wns_hold, sizeof(wns_hold), h);
  if (!endpoint_setup.empty()) {
    h = fnv1a(endpoint_setup.data(),
              endpoint_setup.size() * sizeof(double), h);
  }
  return h;
}

void Session::materialize() {
  if (materialized) return;
  TG_TRACE_SCOPE("serve/materialize", obs::kSpanDetail);
  design = std::make_unique<Design>(tpl->phys->design);
  // The clone is the session's own, so it carries the corner's period:
  // its incremental timer and GNN patches read it from there.
  design->set_period(tpl->period);
  routing = std::make_unique<DesignRouting>(tpl->phys->routing);
  graph = std::make_unique<TimingGraph>(*design);
  // The session's baseline is the corner's STA: the copied design,
  // routing and graph time exactly as the template's did.
  timer = std::make_unique<IncrementalTimer>(*graph, routing.get(), tpl->sta);
  materialized = true;
}

void Session::apply_moves(const std::vector<ResizeMove>& moves) {
  materialize();
  for (const ResizeMove& move : moves) {
    TG_CHECK_MSG(move.inst >= 0 && move.inst < design->num_instances(),
                 "resize move targets unknown instance " << move.inst);
    TG_CHECK_MSG(move.new_cell >= 0, "resize move has no target cell");
    design->instance(move.inst).cell_id = move.new_cell;
    for (PinId pid : design->instance(move.inst).pins) {
      const Pin& pin = design->pin(pid);
      if (pin.net == kInvalidId || design->net(pin.net).is_clock) continue;
      if (!pin.drives_net) {
        // Input caps changed: re-extract the feeding net's parasitics.
        routing->nets[static_cast<std::size_t>(pin.net)] = extract_parasitics(
            *design, pin.net, build_net_steiner(*design, pin.net));
      }
      // Both feeding nets (new load) and the driven net (new drive
      // resistance) re-time through the invalidation seeds.
      timer->invalidate_net(pin.net);
    }
    gnn_touched.push_back(move.inst);
  }
}

const StaResult& Session::engine_result() const {
  return materialized ? timer->result() : tpl->sta;
}

const Design& Session::current_design() const {
  return materialized ? *design : tpl->phys->design;
}

const TimingGraph& Session::current_graph() const {
  return materialized ? *graph : *tpl->phys->graph;
}

const DesignRouting& Session::current_routing() const {
  return materialized ? *routing : tpl->phys->routing;
}

}  // namespace tg::serve
