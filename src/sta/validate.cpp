#include "sta/validate.hpp"

#include <cmath>
#include <vector>

namespace tg {

namespace {

void check_arcs(const TimingGraph& g, DiagSink& sink) {
  const Design& d = g.design();
  const int n = g.num_nodes();
  for (std::size_t a = 0; a < g.net_arcs().size(); ++a) {
    const NetArc& arc = g.net_arcs()[a];
    if (arc.from < 0 || arc.from >= n || arc.to < 0 || arc.to >= n) {
      TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{}, "",
              "net arc " << a << " endpoint out of range (" << arc.from
                         << " -> " << arc.to << ", " << n << " nodes)");
      continue;
    }
    if (arc.net < 0 || arc.net >= d.num_nets()) {
      TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{}, "",
              "net arc " << a << " references net id " << arc.net
                         << " out of range");
      continue;
    }
    const Net& net = d.nets()[static_cast<std::size_t>(arc.net)];
    if (arc.sink_index < 0 ||
        arc.sink_index >= static_cast<int>(net.sinks.size()) ||
        net.sinks[static_cast<std::size_t>(arc.sink_index)] != arc.to) {
      TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{}, net.name,
              "net arc " << a << " sink_index " << arc.sink_index
                         << " does not name its own sink pin");
    }
    if (g.level(arc.to) <= g.level(arc.from)) {
      TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{},
              d.pin_name(arc.to),
              "levelization violated: net arc " << d.pin_name(arc.from)
                  << " (level " << g.level(arc.from) << ") -> level "
                  << g.level(arc.to));
    }
  }
  for (std::size_t a = 0; a < g.cell_arcs().size(); ++a) {
    const CellArc& arc = g.cell_arcs()[a];
    if (arc.from < 0 || arc.from >= n || arc.to < 0 || arc.to >= n) {
      TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{}, "",
              "cell arc " << a << " endpoint out of range (" << arc.from
                          << " -> " << arc.to << ")");
      continue;
    }
    if (arc.inst < 0 || arc.inst >= d.num_instances()) {
      TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{}, "",
              "cell arc " << a << " references instance id " << arc.inst
                          << " out of range");
      continue;
    }
    const CellType& cell =
        d.library().cell(d.instances()[static_cast<std::size_t>(arc.inst)].cell_id);
    if (arc.arc_index < 0 ||
        arc.arc_index >= static_cast<int>(cell.arcs.size())) {
      TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{}, cell.name,
              "cell arc " << a << " arc_index " << arc.arc_index
                          << " out of range");
    }
    if (g.level(arc.to) <= g.level(arc.from)) {
      TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{},
              d.pin_name(arc.to),
              "levelization violated: cell arc " << d.pin_name(arc.from)
                  << " (level " << g.level(arc.from) << ") -> level "
                  << g.level(arc.to));
    }
  }
}

void check_levels(const TimingGraph& g, DiagSink& sink) {
  const int n = g.num_nodes();
  // Acyclicity: the topological order must cover every node exactly once.
  if (static_cast<int>(g.topo_order().size()) != n) {
    TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{}, "",
            "topological order covers " << g.topo_order().size() << " of "
                << n << " nodes — graph is cyclic or disconnected ids exist");
  }
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (PinId p : g.topo_order()) {
    if (p < 0 || p >= n) {
      TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{}, "",
              "topological order holds invalid pin id " << p);
      return;
    }
    if (seen[static_cast<std::size_t>(p)]++) {
      TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{},
              g.design().pin_name(p), "pin appears twice in topological order");
      return;
    }
  }
  // Per-level grouping consistent with level().
  int counted = 0;
  for (std::size_t l = 0; l < g.levels().size(); ++l) {
    for (PinId p : g.levels()[l]) {
      ++counted;
      if (p < 0 || p >= n) {
        TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{}, "",
                "level " << l << " holds invalid pin id " << p);
        return;
      }
      if (g.level(p) != static_cast<int>(l)) {
        TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{},
                g.design().pin_name(p),
                "pin grouped under level " << l << " but level() says "
                                           << g.level(p));
        return;
      }
    }
  }
  if (counted != n) {
    TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{}, "",
            "per-level grouping covers " << counted << " of " << n
                                         << " nodes");
  }
  if (g.num_levels() != static_cast<int>(g.levels().size())) {
    TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{}, "",
            "num_levels() = " << g.num_levels() << " disagrees with levels() "
                              << "size " << g.levels().size());
  }
}

void check_adjacency(const TimingGraph& g, DiagSink& sink) {
  // Full-level CSR cross-check: every pin's incident arc lists reference
  // arcs that actually start/end at that pin.
  const int n = g.num_nodes();
  for (PinId p = 0; p < n; ++p) {
    const int in_net = g.in_net_arc(p);
    if (in_net >= 0) {
      if (in_net >= static_cast<int>(g.net_arcs().size()) ||
          g.net_arcs()[static_cast<std::size_t>(in_net)].to != p) {
        TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{},
                g.design().pin_name(p),
                "in_net_arc " << in_net << " does not end at this pin");
      }
    }
    for (int a : g.out_net_arcs(p)) {
      if (a < 0 || a >= static_cast<int>(g.net_arcs().size()) ||
          g.net_arcs()[static_cast<std::size_t>(a)].from != p) {
        TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{},
                g.design().pin_name(p),
                "out net arc " << a << " does not start at this pin");
      }
    }
    for (int a : g.in_cell_arcs(p)) {
      if (a < 0 || a >= static_cast<int>(g.cell_arcs().size()) ||
          g.cell_arcs()[static_cast<std::size_t>(a)].to != p) {
        TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{},
                g.design().pin_name(p),
                "in cell arc " << a << " does not end at this pin");
      }
    }
    for (int a : g.out_cell_arcs(p)) {
      if (a < 0 || a >= static_cast<int>(g.cell_arcs().size()) ||
          g.cell_arcs()[static_cast<std::size_t>(a)].from != p) {
        TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{},
                g.design().pin_name(p),
                "out cell arc " << a << " does not start at this pin");
      }
    }
  }
}

}  // namespace

void validate_timing_graph(const TimingGraph& g, DiagSink& sink,
                           ValidateLevel level) {
  if (level == ValidateLevel::kOff) return;
  check_arcs(g, sink);
  check_levels(g, sink);
  if (level == ValidateLevel::kFull) check_adjacency(g, sink);
}

void check_sta_finite(const TimingGraph& g, const StaResult& r,
                      DiagSink& sink, ValidateLevel level) {
  if (level == ValidateLevel::kOff) return;
  const Design& d = g.design();
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  auto report = [&](const char* what, std::size_t pin, int corner,
                    double value) {
    TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{},
            d.pin_name(static_cast<PinId>(pin)),
            "non-finite " << what << " (" << value << ") at corner " << corner
                          << ", level " << g.level(static_cast<PinId>(pin))
                          << " — first offender");
  };
  for (std::size_t p = 0; p < n && p < r.arrival.size(); ++p) {
    for (int c = 0; c < kNumCorners; ++c) {
      if (!std::isfinite(r.arrival[p][c])) {
        report("arrival", p, c, r.arrival[p][c]);
        return;
      }
      if (!std::isfinite(r.slew[p][c])) {
        report("slew", p, c, r.slew[p][c]);
        return;
      }
    }
  }
  if (level != ValidateLevel::kFull) return;
  for (std::size_t p = 0; p < n && p < r.net_delay.size(); ++p) {
    for (int c = 0; c < kNumCorners; ++c) {
      if (!std::isfinite(r.net_delay[p][c])) {
        report("net delay", p, c, r.net_delay[p][c]);
        return;
      }
      // RAT and slack are ±Inf at unconstrained pins; NaN is the tripwire.
      if (std::isnan(r.rat[p][c])) {
        report("RAT", p, c, r.rat[p][c]);
        return;
      }
      if (p < r.slack.size() && std::isnan(r.slack[p][c])) {
        report("slack", p, c, r.slack[p][c]);
        return;
      }
    }
  }
  for (std::size_t a = 0; a < r.cell_arc_delay.size(); ++a) {
    for (int c = 0; c < kNumCorners; ++c) {
      if (!std::isfinite(r.cell_arc_delay[a][c])) {
        const CellArc& arc = g.cell_arcs()[a];
        TG_DIAG(sink, Severity::kError, Stage::kSta, SrcLoc{},
                d.pin_name(arc.to),
                "non-finite cell-arc delay (" << r.cell_arc_delay[a][c]
                    << ") at corner " << c << " — first offender");
        return;
      }
    }
  }
}

}  // namespace tg
