#pragma once
/// \file timer.hpp
/// The golden static timing engine: 4-corner levelized propagation over
/// the heterogeneous timing graph, exactly the two-step flow the paper's
/// Section 3.1 describes — net delays/loads from routing first, then
/// level-by-level arrival/slew propagation with NLDM lookups, followed by
/// required-time back-propagation and endpoint slack.
///
/// This engine produces every training label of the reproduction:
/// per-pin net delay (4), arrival (4), slew (4), endpoint RAT (4) and
/// per-cell-arc delay (4).

#include <vector>

#include "route/router.hpp"
#include "sta/timing_graph.hpp"

namespace tg {

struct StaOptions {
  double input_slew_ns = 0.05;  ///< slew asserted at primary inputs
  double clock_slew_ns = 0.03;  ///< ideal-clock slew at FF CK pins
  double po_setup_margin_ns = 0.0;  ///< extra required margin at POs
  double po_hold_margin_ns = 0.0;
};

struct StaResult {
  // Indexed by pin, then corner.
  std::vector<PerCorner> arrival;
  std::vector<PerCorner> slew;
  std::vector<PerCorner> rat;        ///< required arrival time
  std::vector<PerCorner> slack;      ///< late: RAT−AT, early: AT−RAT
  std::vector<PerCorner> net_delay;  ///< delay from the net root (sinks)
  /// Indexed like TimingGraph::cell_arcs(); the delay the propagation used.
  std::vector<PerCorner> cell_arc_delay;
  /// Predecessor (pin, corner) of the winning arrival candidate, for path
  /// tracing; -1 when the pin is a root.
  std::vector<std::array<int, kNumCorners>> pred_pin;
  std::vector<std::array<int, kNumCorners>> pred_corner;

  double wns_setup = 0.0;  ///< worst late slack over endpoints
  double tns_setup = 0.0;  ///< total negative late slack
  double wns_hold = 0.0;
  double tns_hold = 0.0;
  double sta_seconds = 0.0;  ///< propagation wall time (Table 5 column)
};

/// Runs the golden STA. `routing` must cover every non-clock net.
[[nodiscard]] StaResult run_sta(const TimingGraph& graph,
                                const DesignRouting& routing,
                                const StaOptions& options = {});

/// Setup (late) endpoint slack of `pin` reduced over rise/fall — the
/// quantity plotted in the paper's Fig. 4 ("setup slack").
[[nodiscard]] double endpoint_setup_slack(const StaResult& sta, PinId pin);
/// Hold (early) endpoint slack reduced over rise/fall.
[[nodiscard]] double endpoint_hold_slack(const StaResult& sta, PinId pin);

/// Required time at endpoint `pin`: period − setup at the late corners,
/// hold at the early ones, from the endpoint cell's setup/hold (the
/// options' PO margins at ports). The backward sweep's seed, and the RAT
/// an incremental GNN read patches after a flop resize.
[[nodiscard]] PerCorner endpoint_required(const Design& design, PinId pin,
                                          const StaOptions& options);

namespace sta_detail {
/// Recomputes arrival/slew/net_delay of one pin (and the delays of its
/// incoming cell arcs) from its predecessors' current values. Returns the
/// largest absolute arrival/slew change across corners. Shared by the full
/// and incremental timers.
double propagate_pin(const TimingGraph& graph, const DesignRouting& routing,
                     const StaOptions& options, StaResult& r, PinId pin);
/// Backward RAT sweep + slack + WNS/TNS summary.
void compute_required(const TimingGraph& graph, const StaOptions& options,
                      StaResult& r);
}  // namespace sta_detail

}  // namespace tg
