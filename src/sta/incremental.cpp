#include "sta/incremental.hpp"

#include <algorithm>
#include <queue>

#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/obs/metrics.hpp"
#include "util/obs/trace.hpp"

namespace tg {

namespace {
constexpr double kEps = 1e-12;

/// Min-heap entry ordered by topological level so updates run in
/// dependency order.
struct LevelEntry {
  int level;
  PinId pin;
  friend bool operator>(const LevelEntry& a, const LevelEntry& b) {
    return a.level > b.level;
  }
};
}  // namespace

IncrementalTimer::IncrementalTimer(const TimingGraph& graph,
                                   DesignRouting* routing,
                                   const StaOptions& options)
    : graph_(&graph), routing_(routing), options_(options) {
  TG_CHECK(routing != nullptr);
  run_full();
}

IncrementalTimer::IncrementalTimer(const TimingGraph& graph,
                                   DesignRouting* routing, StaResult baseline,
                                   const StaOptions& options)
    : graph_(&graph),
      routing_(routing),
      options_(options),
      result_(std::move(baseline)),
      cone_nodes_(graph.num_nodes()) {
  TG_CHECK(routing != nullptr);
  TG_CHECK(result_.arrival.size() ==
           static_cast<std::size_t>(graph.num_nodes()));
}

void IncrementalTimer::run_full() {
  result_ = run_sta(*graph_, *routing_, options_);
  dirty_nets_.clear();
  cone_nodes_ = graph_->num_nodes();
}

void IncrementalTimer::invalidate_net(NetId net) {
  TG_CHECK(net >= 0 && net < graph_->design().num_nets());
  TG_CHECK_MSG(!graph_->design().net(net).is_clock,
               "clock nets are ideal and carry no parasitics");
  dirty_nets_.insert(net);
}

bool IncrementalTimer::recompute_pin(PinId pin) {
  const double change = sta_detail::propagate_pin(*graph_, *routing_, options_,
                                                  result_, pin);
  return change > kEps;
}

int IncrementalTimer::update() {
  if (dirty_nets_.empty()) {
    cone_nodes_ = 0;
    return 0;
  }
  TG_TRACE_SCOPE("sta/incremental", obs::kSpanCoarse);
  TG_METRIC_COUNT("sta/incremental_updates", 1);

  // Seeds: a net's parasitics affect its sinks (wire delay/slew) AND its
  // driver (the load seen by the driving cell arcs).
  std::vector<PinId> seeds;
  for (NetId net : dirty_nets_) {
    const Net& n = graph_->design().net(net);
    seeds.push_back(n.driver);
    for (PinId s : n.sinks) seeds.push_back(s);
  }
  dirty_nets_.clear();
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  int changed_pins = 0;
  std::priority_queue<LevelEntry, std::vector<LevelEntry>,
                      std::greater<LevelEntry>>
      queue;
  std::vector<char> queued(static_cast<std::size_t>(graph_->num_nodes()), 0);
  auto enqueue = [&](PinId p) {
    if (!queued[static_cast<std::size_t>(p)]) {
      queued[static_cast<std::size_t>(p)] = 1;
      queue.push(LevelEntry{graph_->level(p), p});
    }
  };
  for (PinId p : seeds) enqueue(p);

  cone_nodes_ = 0;
  const CancelToken cancel = current_cancel_token();
  while (!queue.empty()) {
    // Poll every 128 pops: the clock read stays off the per-pin path but
    // a cancelled update still stops within 128 pins.
    if ((cone_nodes_ & 127) == 0) cancel.throw_if_cancelled();
    const PinId p = queue.top().pin;
    queue.pop();
    ++cone_nodes_;
    const bool changed = recompute_pin(p);
    if (!changed) continue;
    ++changed_pins;
    for (int a : graph_->out_net_arcs(p)) {
      enqueue(graph_->net_arcs()[static_cast<std::size_t>(a)].to);
    }
    for (int a : graph_->out_cell_arcs(p)) {
      enqueue(graph_->cell_arcs()[static_cast<std::size_t>(a)].to);
    }
  }

  TG_METRIC_COUNT("sta/incremental_pins_visited", cone_nodes_);
  TG_METRIC_COUNT("sta/incremental_pins_changed", changed_pins);
  if (changed_pins > 0) {
    sta_detail::compute_required(*graph_, options_,
                                 graph_->design().clock_period(), result_);
  }
  return changed_pins;
}

}  // namespace tg
