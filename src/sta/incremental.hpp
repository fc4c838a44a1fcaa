#pragma once
/// \file incremental.hpp
/// Incremental timing update: after a small set of nets change their
/// parasitics (an ECO, a placement move, a resized driver), re-propagate
/// arrival/slew only through the affected fanout cones instead of the
/// whole design. The cone walk visits pins in level order and stops at
/// pins whose values did not move. When any arrival or slew changed,
/// required times and slacks are re-swept over every level
/// (sta_detail::compute_required). Produces results identical to a full
/// run_sta (tested), typically touching a small fraction of the pins.

#include <unordered_set>

#include "sta/timer.hpp"

namespace tg {

class IncrementalTimer {
 public:
  /// Takes a full baseline STA. `routing` is referenced, not copied — it
  /// must stay alive and is the object to mutate between updates.
  IncrementalTimer(const TimingGraph& graph, DesignRouting* routing,
                   const StaOptions& options = {});
  /// Takes `baseline` as the baseline instead: it must be what run_full()
  /// would compute (a run_sta of an identical graph, routing and options),
  /// as a serving session's copy of its template's STA is.
  IncrementalTimer(const TimingGraph& graph, DesignRouting* routing,
                   StaResult baseline, const StaOptions& options = {});

  /// Full (re)propagation; resets the baseline.
  void run_full();

  /// Declares that `net`'s parasitics in the routing were modified.
  void invalidate_net(NetId net);

  /// Re-times all invalidated cones. Returns the number of pins whose
  /// arrival or slew actually changed.
  int update();

  [[nodiscard]] const StaResult& result() const { return result_; }
  /// Pins the last update()'s pruned cone walk re-evaluated. Compare
  /// against TimingGraph::num_nodes() to see the incremental win
  /// (eco_resize does).
  [[nodiscard]] long long last_update_cone() const { return cone_nodes_; }

 private:
  /// Recomputes arrival/slew/net_delay of one pin from its predecessors;
  /// returns true if any value moved by more than kEps.
  bool recompute_pin(PinId pin);

  const TimingGraph* graph_;
  DesignRouting* routing_;
  StaOptions options_;
  StaResult result_;
  std::unordered_set<NetId> dirty_nets_;
  long long cone_nodes_ = 0;
};

}  // namespace tg
