#include "sta/timer.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/obs/metrics.hpp"
#include "util/obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace tg {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Work of one pin in the level sweeps, for util/parallel's cost model.
/// A cell output pin runs two NLDM lookups (a bracket search plus a
/// bilinear blend) per incoming arc, corner and input transition; a net
/// sink takes a square root per corner. Averaged over aes256 at 1/16 that
/// is ~280 ns a pin forward and ~65 ns backward at one thread, stated here
/// at the ~30 work units per ns the nn kernels run at. Chunks own disjoint
/// pins, so these decide when a level forks, never its result.
constexpr Work kForwardPinWork{4096, 4096};
constexpr Work kRequiredPinWork{1024, 1024};

/// Work of one pin in the per-pin fill and slack loops: a few per-corner
/// rows of doubles read and written, and an endpoint's required time
/// (~17 ns a pin on the same design).
constexpr Work kPinRowWork{256, 3 * sizeof(PerCorner)};

/// Input transitions permitted by an arc's sense for a given output
/// transition.
void input_trans_candidates(Sense sense, Trans out, Trans cands[2], int& n) {
  switch (sense) {
    case Sense::kPositive:
      cands[0] = out;
      n = 1;
      return;
    case Sense::kNegative:
      cands[0] = flip(out);
      n = 1;
      return;
    case Sense::kNonUnate:
      cands[0] = Trans::kRise;
      cands[1] = Trans::kFall;
      n = 2;
      return;
  }
  n = 0;
}

/// TG_STA_ENGINE used to choose between propagation engines; the level
/// walk is now the only one. A leftover setting other than `level` stops
/// the run instead of being silently ignored.
void reject_retired_engine_knob() {
  const char* env = std::getenv("TG_STA_ENGINE");
  if (env == nullptr) return;
  const std::string v(env);
  TG_CHECK_MSG(v.empty() || v == "level",
               "TG_STA_ENGINE=" << v
                                << ": the level walk is the only STA engine "
                                   "(async and shard were removed)");
}

}  // namespace

namespace sta_detail {

double propagate_pin(const TimingGraph& graph, const DesignRouting& routing,
                     const StaOptions& options, StaResult& r, PinId p) {
  const Design& d = graph.design();
  const bool has_net_in = graph.in_net_arc(p) >= 0;
  const bool has_cell_in = !graph.in_cell_arcs(p).empty();

  PerCorner new_at{}, new_slew{};

  if (!has_net_in && !has_cell_in) {
    // Roots: primary inputs and (ideal-clock) FF CK pins.
    const double slew0 =
        d.is_clock_pin(p) ? options.clock_slew_ns : options.input_slew_ns;
    new_at = per_corner_fill(0.0);
    new_slew = per_corner_fill(slew0);
  } else if (has_net_in) {
    const NetArc& arc =
        graph.net_arcs()[static_cast<std::size_t>(graph.in_net_arc(p))];
    const NetParasitics& para = routing.nets[static_cast<std::size_t>(arc.net)];
    TG_CHECK_MSG(!para.sink_delay.empty(),
                 "net " << d.net(arc.net).name << " not routed");
    const auto s = static_cast<std::size_t>(arc.sink_index);
    for (int c = 0; c < kNumCorners; ++c) {
      const double nd = para.sink_delay[s][c];
      r.net_delay[static_cast<std::size_t>(p)][c] = nd;
      new_at[c] = r.arrival[static_cast<std::size_t>(arc.from)][c] + nd;
      const double in_slew = r.slew[static_cast<std::size_t>(arc.from)][c];
      const double imp = para.sink_slew_impulse[s][c];
      new_slew[c] = std::sqrt(in_slew * in_slew + imp * imp);
      r.pred_pin[static_cast<std::size_t>(p)][c] = arc.from;
      r.pred_corner[static_cast<std::size_t>(p)][c] = c;
    }
  } else {
    // Cell output pin: combine all incoming cell arcs.
    const NetId out_net = d.pin(p).net;
    const NetParasitics& out_para =
        routing.nets[static_cast<std::size_t>(out_net)];
    for (int m = 0; m < kNumModes; ++m) {
      const bool late = static_cast<Mode>(m) == Mode::kLate;
      for (int t = 0; t < kNumTrans; ++t) {
        const int c_out =
            corner_index(static_cast<Mode>(m), static_cast<Trans>(t));
        const double load = out_para.load[c_out];
        double best_at = late ? -kInf : kInf;
        double best_slew = late ? -kInf : kInf;
        int best_pred = -1, best_pred_corner = -1;

        for (int a : graph.in_cell_arcs(p)) {
          const CellArc& carc = graph.cell_arcs()[static_cast<std::size_t>(a)];
          const TimingArc& lib = graph.lib_arc(carc);
          Trans cands[2];
          int ncands = 0;
          input_trans_candidates(lib.sense, static_cast<Trans>(t), cands,
                                 ncands);
          double arc_best_delay = late ? -kInf : kInf;
          for (int k = 0; k < ncands; ++k) {
            const int c_in = corner_index(static_cast<Mode>(m), cands[k]);
            const double in_slew =
                r.slew[static_cast<std::size_t>(carc.from)][c_in];
            const double delay = lib.delay[c_out].lookup(in_slew, load);
            const double oslew = lib.out_slew[c_out].lookup(in_slew, load);
            const double at =
                r.arrival[static_cast<std::size_t>(carc.from)][c_in] + delay;
            if (late ? at > best_at : at < best_at) {
              best_at = at;
              best_pred = carc.from;
              best_pred_corner = c_in;
            }
            if (late ? oslew > best_slew : oslew < best_slew) best_slew = oslew;
            if (late ? delay > arc_best_delay : delay < arc_best_delay) {
              arc_best_delay = delay;
            }
          }
          r.cell_arc_delay[static_cast<std::size_t>(a)][c_out] = arc_best_delay;
        }
        // NaN/Inf tripwire with first-offender context: a non-finite
        // arrival here pinpoints the pin/corner where bad parasitics or a
        // corrupt LUT first entered the propagation.
        TG_CHECK_MSG(std::isfinite(best_at),
                     "non-finite arrival " << best_at << " at pin "
                                           << d.pin_name(p) << " (corner "
                                           << c_out << ", level "
                                           << graph.level(p) << ")");
        new_at[c_out] = best_at;
        new_slew[c_out] = best_slew;
        r.pred_pin[static_cast<std::size_t>(p)][c_out] = best_pred;
        r.pred_corner[static_cast<std::size_t>(p)][c_out] = best_pred_corner;
      }
    }
  }

  double max_change = 0.0;
  for (int c = 0; c < kNumCorners; ++c) {
    max_change = std::max(
        max_change,
        std::abs(new_at[c] - r.arrival[static_cast<std::size_t>(p)][c]));
    max_change = std::max(
        max_change, std::abs(new_slew[c] - r.slew[static_cast<std::size_t>(p)][c]));
    r.arrival[static_cast<std::size_t>(p)][c] = new_at[c];
    r.slew[static_cast<std::size_t>(p)][c] = new_slew[c];
  }
  return max_change;
}

/// Pulls the required time of one pin from its (already final) successors.
/// Writes only `r.rat[p]`, so independent pins relax concurrently.
void relax_required_pin(const TimingGraph& graph, StaResult& r, PinId p) {
  for (int a : graph.out_net_arcs(p)) {
    const NetArc& arc = graph.net_arcs()[static_cast<std::size_t>(a)];
    for (int c = 0; c < kNumCorners; ++c) {
      const bool late = corner_mode(c) == Mode::kLate;
      const double cand = r.rat[static_cast<std::size_t>(arc.to)][c] -
                          r.net_delay[static_cast<std::size_t>(arc.to)][c];
      double& rat = r.rat[static_cast<std::size_t>(p)][c];
      rat = late ? std::min(rat, cand) : std::max(rat, cand);
    }
  }
  for (int a : graph.out_cell_arcs(p)) {
    const CellArc& carc = graph.cell_arcs()[static_cast<std::size_t>(a)];
    const TimingArc& lib = graph.lib_arc(carc);
    for (int m = 0; m < kNumModes; ++m) {
      const bool late = static_cast<Mode>(m) == Mode::kLate;
      for (int t = 0; t < kNumTrans; ++t) {
        const int c_out =
            corner_index(static_cast<Mode>(m), static_cast<Trans>(t));
        Trans cands[2];
        int ncands = 0;
        input_trans_candidates(lib.sense, static_cast<Trans>(t), cands,
                               ncands);
        const double cand = r.rat[static_cast<std::size_t>(carc.to)][c_out] -
                            r.cell_arc_delay[static_cast<std::size_t>(a)][c_out];
        for (int k = 0; k < ncands; ++k) {
          const int c_in = corner_index(static_cast<Mode>(m), cands[k]);
          double& rat = r.rat[static_cast<std::size_t>(p)][c_in];
          rat = late ? std::min(rat, cand) : std::max(rat, cand);
        }
      }
    }
  }
}

void compute_required(const TimingGraph& graph, const StaOptions& options,
                      StaResult& r) {
  TG_TRACE_SCOPE("sta/backward", obs::kSpanCoarse);
  const Design& d = graph.design();
  const int n = d.num_pins();

  parallel_for(0, n, kPinRowWork, [&](std::int64_t pb, std::int64_t pe) {
    for (PinId p = static_cast<PinId>(pb); p < pe; ++p) {
      for (int c = 0; c < kNumCorners; ++c) {
        const bool late = corner_mode(c) == Mode::kLate;
        r.rat[static_cast<std::size_t>(p)][c] = late ? kInf : -kInf;
      }
      if (!d.is_endpoint(p)) continue;
      r.rat[static_cast<std::size_t>(p)] = endpoint_required(d, p, options);
    }
  });

  // Backward sweep over the reversed graph: levels descending, all pins
  // of a level in parallel (every successor lives on a higher level, so
  // its RAT is final). relax_required_pin writes only rat[p], so the
  // result does not depend on the thread count.
  const CancelToken cancel = current_cancel_token();
  for (int l = graph.num_levels() - 1; l >= 0; --l) {
    cancel.throw_if_cancelled();  // level boundary = cancellation checkpoint
    const std::span<const PinId> level = graph.level_pins(l);
    TG_TRACE_SCOPE("sta/backward/level", obs::kSpanDetail);
    TG_METRIC_COUNT("sta/pins_relaxed", level.size());
    parallel_for(0, static_cast<std::int64_t>(level.size()), kRequiredPinWork,
                 [&](std::int64_t b, std::int64_t e) {
                   for (std::int64_t i = b; i < e; ++i) {
                     relax_required_pin(graph, r,
                                        level[static_cast<std::size_t>(i)]);
                   }
                 });
  }

  // Slack (per-pin, parallel) then the serial endpoint summary so WNS/TNS
  // accumulate in pin order regardless of thread count.
  parallel_for(0, n, kPinRowWork, [&](std::int64_t pb, std::int64_t pe) {
    for (PinId p = static_cast<PinId>(pb); p < pe; ++p) {
      for (int c = 0; c < kNumCorners; ++c) {
        const bool late = corner_mode(c) == Mode::kLate;
        const double rat = r.rat[static_cast<std::size_t>(p)][c];
        const double at = r.arrival[static_cast<std::size_t>(p)][c];
        r.slack[static_cast<std::size_t>(p)][c] =
            std::isfinite(rat) ? (late ? rat - at : at - rat) : kInf;
      }
    }
  });
  r.wns_setup = kInf;
  r.wns_hold = kInf;
  r.tns_setup = 0.0;
  r.tns_hold = 0.0;
  for (PinId p = 0; p < n; ++p) {
    if (!d.is_endpoint(p)) continue;
    const double s_setup = endpoint_setup_slack(r, p);
    const double s_hold = endpoint_hold_slack(r, p);
    r.wns_setup = std::min(r.wns_setup, s_setup);
    r.wns_hold = std::min(r.wns_hold, s_hold);
    if (s_setup < 0.0) r.tns_setup += s_setup;
    if (s_hold < 0.0) r.tns_hold += s_hold;
  }
}

}  // namespace sta_detail

StaResult run_sta(const TimingGraph& graph, const DesignRouting& routing,
                  const StaOptions& options) {
  [[maybe_unused]] static const bool engine_knob_checked =
      (reject_retired_engine_knob(), true);
  const Design& d = graph.design();
  const int n = d.num_pins();
  TG_CHECK(static_cast<int>(routing.nets.size()) == d.num_nets());

  TG_TRACE_SCOPE("sta/run", obs::kSpanCoarse);
  TG_METRIC_COUNT("sta/runs", 1);
  TG_METRIC_COUNT("sta/net_arcs", graph.net_arcs().size());
  TG_METRIC_COUNT("sta/cell_arcs", graph.cell_arcs().size());

  WallTimer timer;
  StaResult r;
  r.arrival.assign(static_cast<std::size_t>(n), per_corner_fill(0.0));
  r.slew.assign(static_cast<std::size_t>(n), per_corner_fill(0.0));
  r.net_delay.assign(static_cast<std::size_t>(n), per_corner_fill(0.0));
  r.rat.assign(static_cast<std::size_t>(n), per_corner_fill(0.0));
  r.slack.assign(static_cast<std::size_t>(n), per_corner_fill(0.0));
  r.cell_arc_delay.assign(graph.cell_arcs().size(), per_corner_fill(0.0));
  r.pred_pin.assign(static_cast<std::size_t>(n), {-1, -1, -1, -1});
  r.pred_corner.assign(static_cast<std::size_t>(n), {-1, -1, -1, -1});

  // Forward sweep, level-synchronized: each parallel_for is a barrier,
  // and every predecessor of a level-L pin lives below L. propagate_pin
  // writes only pin-owned rows (a cell arc's delay slot is owned by its
  // unique `to` pin) and reads only finalized predecessors, so the result
  // does not depend on the thread count.
  {
    TG_TRACE_SCOPE("sta/forward", obs::kSpanCoarse);
    const CancelToken cancel = current_cancel_token();
    for (int l = 0; l < graph.num_levels(); ++l) {
      cancel.throw_if_cancelled();  // level boundary = cancellation checkpoint
      const std::span<const PinId> level = graph.level_pins(l);
      TG_TRACE_SCOPE("sta/forward/level", obs::kSpanDetail);
      TG_METRIC_COUNT("sta/pins_propagated", level.size());
      parallel_for(0, static_cast<std::int64_t>(level.size()), kForwardPinWork,
                   [&](std::int64_t b, std::int64_t e) {
                     for (std::int64_t i = b; i < e; ++i) {
                       sta_detail::propagate_pin(
                           graph, routing, options, r,
                           level[static_cast<std::size_t>(i)]);
                     }
                   });
    }
  }
  sta_detail::compute_required(graph, options, r);
  r.sta_seconds = timer.seconds();
  return r;
}

double endpoint_setup_slack(const StaResult& sta, PinId pin) {
  const PerCorner& s = sta.slack[static_cast<std::size_t>(pin)];
  return std::min(s[corner_index(Mode::kLate, Trans::kRise)],
                  s[corner_index(Mode::kLate, Trans::kFall)]);
}

double endpoint_hold_slack(const StaResult& sta, PinId pin) {
  const PerCorner& s = sta.slack[static_cast<std::size_t>(pin)];
  return std::min(s[corner_index(Mode::kEarly, Trans::kRise)],
                  s[corner_index(Mode::kEarly, Trans::kFall)]);
}

PerCorner endpoint_required(const Design& design, PinId pin,
                            const StaOptions& options) {
  PerCorner setup = per_corner_fill(options.po_setup_margin_ns);
  PerCorner hold = per_corner_fill(options.po_hold_margin_ns);
  if (!design.pin(pin).is_port) {
    const CellType& cell = design.cell_of(pin);
    setup = cell.setup;
    hold = cell.hold;
  }
  const double period = design.clock_period();
  PerCorner rat{};
  for (int c = 0; c < kNumCorners; ++c) {
    const bool late = corner_mode(c) == Mode::kLate;
    rat[c] = late ? period - setup[c] : hold[c];
  }
  return rat;
}

}  // namespace tg
