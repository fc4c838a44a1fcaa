#include "serve/session.hpp"

#include <algorithm>
#include <cstring>

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
  tpl->plan = core::build_prop_plan(tpl->g);  // publishes g.level_csr
  tpl->read_topo = core::build_read_topology(tpl->g);
  // Publish the remaining lazy caches now: from here on `g` is read, and
  // copied by moved sessions, with no lock.
  (void)data::shared_net_src(tpl->g);
  (void)data::shared_net_dst(tpl->g);
  (void)data::shared_net_sinks(tpl->g);

  cache_.emplace(key, tpl);
  return tpl;
}

PackCache::PackCache(int capacity) : capacity_(capacity) {
  TG_CHECK(capacity >= 1);
}

int PackCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(lru_.size());
}

std::shared_ptr<const PackEntry> PackCache::get_or_pack(
    const std::vector<std::shared_ptr<const SessionTemplate>>& tpls,
    const core::TimingGnn& model, bool* hit) {
  // Canonical key: sorted distinct template keys (batch order and
  // duplicate sessions on one template must not fragment the cache).
  std::vector<std::shared_ptr<const SessionTemplate>> distinct(tpls);
  std::sort(distinct.begin(), distinct.end(),
            [](const auto& a, const auto& b) { return a->key < b->key; });
  distinct.erase(std::unique(distinct.begin(), distinct.end(),
                             [](const auto& a, const auto& b) {
                               return a->key == b->key;
                             }),
                 distinct.end());
  std::vector<std::uint64_t> keys;
  keys.reserve(distinct.size());
  for (const auto& t : distinct) keys.push_back(t->key);

  const std::lock_guard<std::mutex> lock(mu_);
  // Exact match wins; failing that, the smallest cached *superset* pack is
  // reused (keys are sorted, so subset-inclusion is one linear merge).
  // Supersets appear when the tenant mix shrinks — e.g. some clients of a
  // steady mix drain first — and reusing them trades a few extra forward
  // rows for skipping a pack + plan + embedding rebuild, which would
  // otherwise serialize every packed batch behind this lock.
  auto best = lru_.end();
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if ((*it)->keys == keys) {
      best = it;
      break;
    }
    if (std::includes((*it)->keys.begin(), (*it)->keys.end(), keys.begin(),
                      keys.end()) &&
        (best == lru_.end() ||
         (*it)->pack.g.num_nodes < (*best)->pack.g.num_nodes)) {
      best = it;
    }
  }
  if (best != lru_.end()) {
    lru_.splice(lru_.begin(), lru_, best);
    if (hit != nullptr) *hit = true;
    return lru_.front();
  }

  // Miss: pack + plan under the cache lock, like TemplateCache — racing
  // workers on the same mix would otherwise duplicate the build.
  TG_TRACE_SCOPE("serve/pack_build", obs::kSpanCoarse);
  auto entry = std::make_shared<PackEntry>();
  entry->keys = std::move(keys);
  entry->templates = std::move(distinct);
  std::vector<const data::DatasetGraph*> parts;
  parts.reserve(entry->templates.size());
  for (const auto& t : entry->templates) parts.push_back(&t->g);
  entry->pack = data::pack_graphs(parts);
  entry->plan = core::build_prop_plan(entry->pack.g);
  entry->embedding = model.embed(entry->pack.g);
  lru_.push_front(std::move(entry));
  while (static_cast<int>(lru_.size()) > capacity_) lru_.pop_back();
  if (hit != nullptr) *hit = false;
  return lru_.front();
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
