/// \file eco_resize.cpp
/// Downstream-tool example, now written against the serving plane
/// (DESIGN.md §12): a greedy ECO gate-sizing loop as a `SlackServer`
/// client. The client opens a session with a deliberately tight clock,
/// repeatedly inspects the session's timing view to pick the weakest
/// upsizable driver on the worst setup path, and streams the resize as a
/// move request — the server answers from the incremental dirty-cone fast
/// path, the classical engine-side workflow whose cost motivates the
/// paper's learned predictor.
///
/// After the loop the client asserts the serving plane's correctness
/// contract: a `force_full` re-predict (fresh full re-time of the mutated
/// session) must agree with the accumulated cone answers to ~1e-6 — WNS,
/// TNS and every endpoint slack.
///
///   ./eco_resize [--design=picorv32a] [--scale=0.0625] [--max-moves=20]
///                [--target-factor=0.97]

#include <cmath>
#include <cstdio>

#include "serve/server.hpp"
#include "sta/paths.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace tg {
namespace {

/// Returns the library cell id of the same function at the next drive
/// strength, or -1 if already at the maximum.
int upsized_cell(const Library& lib, int cell_id) {
  const CellType& cell = lib.cell(cell_id);
  int best = -1;
  int best_drive = 1 << 30;
  for (int candidate : lib.cells_of_function(cell.function)) {
    const int drive = lib.cell(candidate).drive;
    if (drive > cell.drive && drive < best_drive) {
      best = candidate;
      best_drive = drive;
    }
  }
  return best;
}

/// Victim choice from the session's current timing view: the largest
/// arrival increment on the worst setup path whose cell can be upsized.
struct Victim {
  serve::ResizeMove move;
  std::string inst_name, old_cell, new_cell;
  bool found = false;
};

Victim pick_victim(const serve::SessionView& view) {
  Victim v;
  const auto paths = worst_paths(view.graph, view.sta, 1, true);
  if (paths.empty()) return v;
  const CriticalPath& path = paths[0];
  const Library& lib = view.design.library();

  double victim_incr = 0.0;
  for (std::size_t i = 1; i < path.steps.size(); ++i) {
    const Pin& pin = view.design.pin(path.steps[i].pin);
    if (pin.is_port || !pin.drives_net) continue;  // want cell outputs
    const Instance& inst = view.design.instance(pin.inst);
    const int up = upsized_cell(lib, inst.cell_id);
    if (up < 0) continue;
    const double incr = path.steps[i].arrival - path.steps[i - 1].arrival;
    if (incr > victim_incr) {
      victim_incr = incr;
      v.move = {pin.inst, up};
      v.inst_name = inst.name;
      v.old_cell = lib.cell(inst.cell_id).name;
      v.new_cell = lib.cell(up).name;
      v.found = true;
    }
  }
  return v;
}

}  // namespace
}  // namespace tg

int main(int argc, char** argv) {
  using namespace tg;
  const CliOptions opts(argc, argv);
  opts.require_known({"design", "scale", "max-moves", "target-factor"});
  const std::string name = opts.get("design", "picorv32a");
  const double scale = opts.get_double("scale", 1.0 / 16);
  const int max_moves = static_cast<int>(opts.get_int("max-moves", 20));
  const double factor = opts.get_double("target-factor", 0.97);

  serve::SlackServer server;
  // Deliberately tight clock: the initial design violates setup.
  const serve::SessionId session = server.open_session(name, scale, factor);

  int num_pins = 0;
  double period = 0.0;
  server.inspect(session, [&](const serve::SessionView& v) {
    num_pins = v.design.num_pins();
    period = v.clock_period;
  });

  // Baseline engine answer (pristine session -> golden STA).
  serve::Request baseline;
  baseline.session = session;
  baseline.mode = serve::RequestMode::kSta;
  serve::Response current = server.call(std::move(baseline));
  std::printf("design %s: %d pins, period %.3f ns, initial WNS %+.4f ns, "
              "TNS %+.4f ns [served: %s/%s]\n",
              name.c_str(), num_pins, period, current.wns_setup,
              current.tns_setup, serve::response_status_name(current.status),
              serve::serve_tier_name(current.tier));

  WallTimer wall;
  int moves = 0;
  while (moves < max_moves && current.wns_setup < 0.0) {
    Victim victim;
    server.inspect(session, [&](const serve::SessionView& v) {
      victim = pick_victim(v);
    });
    if (!victim.found) {
      std::printf("no upsizable cell left on the critical path\n");
      break;
    }

    // One move request: the server applies the resize, re-extracts the
    // touched parasitics and re-times the dirty cone.
    serve::Request req;
    req.session = session;
    req.mode = serve::RequestMode::kSta;
    req.moves.push_back(victim.move);
    current = server.call(std::move(req));
    TG_CHECK_MSG(current.status != serve::ResponseStatus::kShed,
                 "move request shed: " << current.error);
    ++moves;
    std::printf("move %2d: %s %s -> %s | WNS %+.4f ns, TNS %+.4f ns "
                "[%s/%s, %.3f ms]\n",
                moves, victim.inst_name.c_str(), victim.old_cell.c_str(),
                victim.new_cell.c_str(), current.wns_setup, current.tns_setup,
                serve::response_status_name(current.status),
                serve::serve_tier_name(current.tier),
                static_cast<double>(current.latency.count()) / 1e6);
  }

  std::printf("\n%d moves in %.3f s via the serving plane\n", moves,
              wall.seconds());
  std::printf("final: WNS %+.4f ns, TNS %+.4f ns (%s)\n", current.wns_setup,
              current.tns_setup,
              current.wns_setup >= 0.0 ? "timing met" : "violations remain");

  // ---- cone == full contract --------------------------------------------
  // The accumulated incremental answers must agree with a from-scratch
  // full re-time of the mutated session.
  serve::Request cone_req;
  cone_req.session = session;
  cone_req.mode = serve::RequestMode::kSta;
  const serve::Response cone = server.call(std::move(cone_req));

  serve::Request full_req;
  full_req.session = session;
  full_req.mode = serve::RequestMode::kSta;
  full_req.force_full = true;
  const serve::Response full = server.call(std::move(full_req));

  TG_CHECK_MSG(full.status == serve::ResponseStatus::kOk &&
                   full.tier == serve::ServeTier::kFull,
               "force_full re-predict was not served at the full tier");
  constexpr double kTol = 1e-6;
  TG_CHECK_MSG(std::abs(cone.wns_setup - full.wns_setup) <= kTol,
               "cone/full WNS mismatch: " << cone.wns_setup << " vs "
                                          << full.wns_setup);
  TG_CHECK_MSG(std::abs(cone.tns_setup - full.tns_setup) <= kTol,
               "cone/full TNS mismatch: " << cone.tns_setup << " vs "
                                          << full.tns_setup);
  TG_CHECK_MSG(cone.endpoint_setup.size() == full.endpoint_setup.size(),
               "endpoint count mismatch");
  double max_diff = 0.0;
  for (std::size_t i = 0; i < cone.endpoint_setup.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(cone.endpoint_setup[i] -
                                           full.endpoint_setup[i]));
  }
  TG_CHECK_MSG(max_diff <= kTol,
               "cone/full endpoint slack mismatch: max " << max_diff);
  std::printf("cone == full re-predict: %zu endpoint slacks agree "
              "(max diff %.2e)\n",
              cone.endpoint_setup.size(), max_diff);
  return 0;
}
