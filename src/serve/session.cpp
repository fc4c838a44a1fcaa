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

std::uint64_t design_hash(const std::string& design, double scale,
                          double clock_factor) {
  std::uint64_t h = 14695981039346656037ULL;
  h = fnv1a(design.data(), design.size(), h);
  h = fnv1a(&scale, sizeof(scale), h);
  h = fnv1a(&clock_factor, sizeof(clock_factor), h);
  return h;
}

std::shared_ptr<const SessionTemplate> TemplateCache::get_or_build(
    const std::string& design, double scale, double clock_factor) {
  const std::uint64_t key = design_hash(design, scale, clock_factor);
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  TG_TRACE_SCOPE("serve/template_build", obs::kSpanCoarse);
  auto tpl = std::make_shared<SessionTemplate>(serve_library());
  tpl->key = key;
  tpl->design_name = design;
  tpl->scale = scale;
  tpl->clock_factor = clock_factor;

  const SuiteEntry entry = suite_entry(design, scale);
  tpl->design = generate_design(entry.spec, serve_library());
  place_design(tpl->design);

  RoutingOptions route_opts;
  route_opts.mode = RouteMode::kSteiner;
  tpl->routing = route_design(tpl->design, route_opts);

  tpl->graph = std::make_unique<TimingGraph>(tpl->design);
  {
    const StaResult warmup = run_sta(*tpl->graph, tpl->routing);
    const double factor = clock_factor > 0.0 ? clock_factor : entry.clock_factor;
    tpl->design.set_period(
        calibrated_period(tpl->design, warmup.arrival, factor));
  }
  tpl->sta = run_sta(*tpl->graph, tpl->routing);
  tpl->g =
      data::extract_graph(tpl->design, *tpl->graph, tpl->routing, tpl->sta);
  if (lut_table_ == nullptr) {
    lut_table_ = tpl->g.lut_table;
  } else {
    TG_CHECK_MSG(lut_table_->same_content(*tpl->g.lut_table),
                 "template " << design << " built a different LUT table");
    tpl->g.lut_table = lut_table_;
  }
  tpl->plan = core::build_prop_plan(tpl->g);

  cache_.emplace(key, tpl);
  return tpl;
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
  design = std::make_unique<Design>(tpl->design);
  routing = std::make_unique<DesignRouting>(tpl->routing);
  graph = std::make_unique<TimingGraph>(*design);
  // The IncrementalTimer constructor runs the baseline full STA — that
  // *is* this session's reference state, identical to tpl->sta until the
  // first move lands.
  timer = std::make_unique<IncrementalTimer>(*graph, routing.get());
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
  return materialized ? *design : tpl->design;
}

const TimingGraph& Session::current_graph() const {
  return materialized ? *graph : *tpl->graph;
}

const DesignRouting& Session::current_routing() const {
  return materialized ? *routing : tpl->routing;
}

}  // namespace tg::serve
