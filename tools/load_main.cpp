/// \file load_main.cpp
/// tg_serve_load: fault-tolerance load driver for the slack-prediction
/// serving plane (DESIGN.md §12). Replays many concurrent ECO sessions
/// against one SlackServer — each client opens a session and streams a mix
/// of resize-move requests and slack predictions with per-request deadline
/// budgets — then layers on the failure weather the server must survive:
///
///   * an overload spike (a burst of several queue-capacities of requests
///     fired at once, which must shed with retry-after hints, not queue),
///   * mid-flight client cancellations (`--cancel-frac`),
///   * injected worker faults (`--fault=<op>:<nth>[:<count>]`, same spec
///     as TG_FAULT_SERVE).
///
/// The driver then *verifies the robustness contract*: every submitted
/// future resolves (zero hangs), every response carries a valid
/// ok|degraded|shed tag, every answered (not shed) response carries a
/// concrete tier tag, and the server's own counters agree with the
/// client-side tally.
/// Exit 0 = contract held; the digest prints throughput, p50/p99 latency
/// per status and a per-template latency breakdown (`--design` accepts a
/// comma-separated list; tenants round-robin across it).
///
///   ./tg_serve_load [--design=spm] [--scale=0.03125] [--sessions=32]
///                   [--requests=8] [--workers=4] [--queue=32]
///                   [--deadline-ms=200] [--cancel-frac=0.1]
///                   [--move-frac=0.5] [--spike=1] [--fault=worker:3:2]
///                   [--seed=1]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "liberty/library_builder.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/fault.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace tg {
namespace {

using serve::Request;
using serve::RequestMode;
using serve::Response;
using serve::ResponseStatus;
using serve::ServeTier;

struct Outcome {
  ResponseStatus status;
  ServeTier tier;
  std::int64_t latency_ns;
  bool was_cancelled_by_client;
  int design_idx;   ///< index into the --design list (template identity)
};

struct Tally {
  std::mutex mu;
  std::vector<Outcome> outcomes;
  long long hangs = 0;

  void add(const Response& r, bool client_cancelled, int design_idx) {
    const std::lock_guard<std::mutex> lock(mu);
    outcomes.push_back({r.status, r.tier, r.latency.count(),
                        client_cancelled, design_idx});
  }
};

/// Waits generously; a future that never resolves is the one bug this
/// driver exists to catch.
bool harvest(std::future<Response>& fut, Tally& tally,
             bool client_cancelled, int design_idx) {
  if (fut.wait_for(std::chrono::seconds(120)) !=
      std::future_status::ready) {
    const std::lock_guard<std::mutex> lock(tally.mu);
    ++tally.hangs;
    return false;
  }
  tally.add(fut.get(), client_cancelled, design_idx);
  return true;
}

/// A random same-function cell swap for `inst` — the load driver's ECO
/// move. Returns false when the instance's function has no alternative.
bool random_resize(const Library& lib, const Design& design, int inst,
                   std::mt19937& rng, serve::ResizeMove* out) {
  const CellType& cell = lib.cell(design.instance(inst).cell_id);
  const std::vector<int>& family = lib.cells_of_function(cell.function);
  if (family.size() < 2) return false;
  int pick = family[rng() % family.size()];
  if (pick == design.instance(inst).cell_id) {
    pick = family[(static_cast<std::size_t>(
                       std::find(family.begin(), family.end(), pick) -
                       family.begin()) +
                   1) %
                  family.size()];
  }
  out->inst = inst;
  out->new_cell = pick;
  return true;
}

double percentile_ms(std::vector<std::int64_t>& ns, double p) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(ns.size() - 1) + 0.5);
  return static_cast<double>(ns[std::min(idx, ns.size() - 1)]) / 1e6;
}

/// One client: a session replaying an ECO stream. Moves and predictions
/// interleave; a fraction of requests carry tight budgets or get cancelled
/// mid-flight.
void run_client(serve::SlackServer& server, const Library& lib,
                serve::SessionId session, int design_idx, int requests,
                std::chrono::nanoseconds deadline, double cancel_frac,
                double move_frac, std::uint64_t seed, Tally& tally) {
  std::mt19937 rng(static_cast<std::uint32_t>(seed));
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  int num_instances = 0;
  server.inspect(session, [&](const serve::SessionView& v) {
    num_instances = v.design.num_instances();
  });

  for (int i = 0; i < requests; ++i) {
    Request req;
    req.session = session;
    if (num_instances > 0 && coin(rng) < move_frac) {
      serve::ResizeMove move;
      const int inst = static_cast<int>(rng() % static_cast<std::uint32_t>(
                                                    num_instances));
      int current_cell = -1;
      server.inspect(session, [&](const serve::SessionView& v) {
        current_cell = v.design.instance(inst).cell_id;
        serve::ResizeMove m;
        if (random_resize(lib, v.design, inst, rng, &m)) move = m;
      });
      if (move.inst >= 0) req.moves.push_back(move);
    }
    // Deadline jitter: most requests get the configured budget, a few get
    // one so tight only stale (or a shed) can meet it.
    if (deadline.count() > 0) {
      req.budget = coin(rng) < 0.15 ? std::chrono::nanoseconds(50000)
                                    : deadline;
    }

    const bool cancel_this = coin(rng) < cancel_frac;
    CancelSource source;
    if (cancel_this) req.cancel = source.token();

    std::future<Response> fut = server.submit(std::move(req));
    if (cancel_this) {
      // Cancel quickly — often while the request is queued or mid-tier.
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng() % 2000));
      source.cancel();
    }
    harvest(fut, tally, cancel_this, design_idx);
  }
}

}  // namespace
}  // namespace tg

int main(int argc, char** argv) {
  using namespace tg;
  const CliOptions opts(argc, argv);
  opts.require_known({"design", "scale", "sessions", "requests", "workers",
                      "queue", "deadline-ms", "cancel-frac", "move-frac",
                      "spike", "fault", "seed"});

  // --design accepts a comma-separated list: tenants round-robin across
  // the templates, so workers serve several templates at once.
  std::vector<std::string> designs;
  for (const std::string& d : split(opts.get("design", "spm"), ',')) {
    if (!d.empty()) designs.push_back(d);
  }
  TG_CHECK_MSG(!designs.empty(), "--design lists no designs");
  const double scale = opts.get_double("scale", 0.03125);
  const int sessions = static_cast<int>(opts.get_int("sessions", 32));
  const int requests = static_cast<int>(opts.get_int("requests", 8));
  const double cancel_frac = opts.get_double("cancel-frac", 0.1);
  const double move_frac = opts.get_double("move-frac", 0.5);
  const bool spike = opts.get_bool("spike", true);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const auto deadline = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(
          opts.get_double("deadline-ms", 200.0)));

  // Fault spec rides the same parser as TG_FAULT_SERVE.
  const std::string fault = opts.get("fault", "");
  if (!fault.empty()) {
    const std::size_t c1 = fault.find(':');
    TG_CHECK_MSG(c1 != std::string::npos && c1 > 0,
                 "--fault wants <op>:<nth>[:<count>], got " << fault);
    const std::string op = fault.substr(0, c1);
    char* end = nullptr;
    const long long nth = std::strtoll(fault.c_str() + c1 + 1, &end, 10);
    long long count = 1;
    if (end != nullptr && *end == ':') count = std::strtoll(end + 1, nullptr, 10);
    TG_CHECK_MSG(nth > 0 && count > 0, "bad --fault spec " << fault);
    fault::arm_serve_fault(op, nth, count);
  }

  serve::ServeOptions so;
  so.workers = static_cast<int>(opts.get_int("workers", 4));
  so.queue_capacity = static_cast<int>(opts.get_int("queue", 32));
  serve::SlackServer server(so);

  const Library lib = build_library();
  std::string design_list = designs[0];
  for (std::size_t d = 1; d < designs.size(); ++d) {
    design_list += "," + designs[d];
  }
  std::printf("tg_serve_load: %d sessions x %d requests on %s/%.5f "
              "(%d workers, queue %d, deadline %.1f ms, cancel %.0f%%, "
              "moves %.0f%%%s%s)\n",
              sessions, requests, design_list.c_str(), scale, so.workers,
              so.queue_capacity,
              static_cast<double>(deadline.count()) / 1e6,
              100.0 * cancel_frac, 100.0 * move_frac,
              fault.empty() ? "" : ", fault ", fault.c_str());

  // Open every session first (each template built once, shared by its
  // tenants); sessions round-robin across the design list.
  std::vector<serve::SessionId> ids;
  ids.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    ids.push_back(server.open_session(
        designs[static_cast<std::size_t>(s) % designs.size()], scale));
  }

  Tally tally;
  WallTimer wall;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    clients.emplace_back([&, s] {
      run_client(server, lib, ids[static_cast<std::size_t>(s)],
                 static_cast<int>(static_cast<std::size_t>(s) %
                                  designs.size()),
                 requests, deadline, cancel_frac, move_frac,
                 seed + static_cast<std::uint64_t>(s) * 7919, tally);
    });
  }

  // Overload spike: several queue-capacities of pure predictions at once,
  // while the clients are mid-stream. Must shed, never hang.
  long long spike_count = 0;
  if (spike) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<std::future<Response>> burst;
    const int n = 3 * so.queue_capacity;
    burst.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      Request req;
      req.session = ids[static_cast<std::size_t>(i % sessions)];
      req.budget = deadline;
      burst.push_back(server.submit(std::move(req)));
    }
    for (int i = 0; i < n; ++i) {
      harvest(burst[static_cast<std::size_t>(i)], tally, false,
              static_cast<int>(static_cast<std::size_t>(i % sessions) %
                               designs.size()));
    }
    spike_count = n;
  }

  for (std::thread& c : clients) c.join();
  const double elapsed = wall.seconds();
  server.shutdown();

  // ---- digest + contract checks ----------------------------------------
  const serve::ServerStats stats = server.stats();
  long long by_status[3] = {0, 0, 0};
  long long by_tier[4] = {0, 0, 0, 0};
  long long untagged = 0;
  std::vector<std::int64_t> lat_answered, lat_shed;
  std::vector<std::vector<std::int64_t>> lat_by_design(designs.size());
  {
    const std::lock_guard<std::mutex> lock(tally.mu);
    for (const Outcome& o : tally.outcomes) {
      ++by_status[static_cast<int>(o.status)];
      ++by_tier[static_cast<int>(o.tier)];
      // An answered response must name the tier that produced it: only a
      // shed carries no payload, so tier == kNone on any other status
      // means an answer slipped through untagged.
      if (o.status != ResponseStatus::kShed && o.tier == ServeTier::kNone) {
        ++untagged;
      }
      if (o.status == ResponseStatus::kShed) {
        lat_shed.push_back(o.latency_ns);
      } else {
        lat_answered.push_back(o.latency_ns);
        lat_by_design[static_cast<std::size_t>(o.design_idx)].push_back(
            o.latency_ns);
      }
    }
  }
  const long long total =
      static_cast<long long>(sessions) * requests + spike_count;
  const long long seen = by_status[0] + by_status[1] + by_status[2];

  std::printf("\n%lld requests in %.3f s (%.1f req/s)\n", total, elapsed,
              static_cast<double>(total) / elapsed);
  std::printf("  status: %lld ok, %lld degraded, %lld shed\n", by_status[0],
              by_status[1], by_status[2]);
  std::printf("  tier:   %lld full, %lld cone, %lld stale, %lld none\n",
              by_tier[1], by_tier[2], by_tier[3], by_tier[0]);
  std::printf("  server: %llu retries, %llu faults, "
              "%llu quarantines, %llu cancelled, %llu deadline-expired\n",
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.faults),
              static_cast<unsigned long long>(stats.quarantines),
              static_cast<unsigned long long>(stats.cancelled),
              static_cast<unsigned long long>(stats.deadline_expired));
  std::printf("  latency (answered): p50 %.3f ms, p99 %.3f ms over %zu\n",
              percentile_ms(lat_answered, 0.50),
              percentile_ms(lat_answered, 0.99), lat_answered.size());
  std::printf("  latency (shed):     p50 %.3f ms, p99 %.3f ms over %zu\n",
              percentile_ms(lat_shed, 0.50), percentile_ms(lat_shed, 0.99),
              lat_shed.size());
  // Per-template skew: one design dominating p99 means its forwards
  // starve the others.
  for (std::size_t d = 0; d < designs.size(); ++d) {
    std::vector<std::int64_t>& lat = lat_by_design[d];
    std::printf("  template %-16s p50 %8.3f ms, p99 %8.3f ms over %4zu "
                "answered\n",
                designs[d].c_str(), percentile_ms(lat, 0.50),
                percentile_ms(lat, 0.99), lat.size());
  }

  int rc = 0;
  if (untagged > 0) {
    std::printf("FAIL: %lld answered responses untagged (no tier on an "
                "ok or degraded status)\n",
                untagged);
    rc = 1;
  }
  if (tally.hangs > 0) {
    std::printf("FAIL: %lld futures never resolved (hang)\n", tally.hangs);
    rc = 1;
  }
  if (seen != total) {
    std::printf("FAIL: %lld of %lld responses harvested\n", seen, total);
    rc = 1;
  }
  if (stats.completed != stats.submitted) {
    std::printf("FAIL: server fulfilled %llu of %llu submitted\n",
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.submitted));
    rc = 1;
  }
  std::printf(rc == 0 ? "contract held: zero hangs, every response tagged\n"
                      : "contract VIOLATED\n");
  return rc;
}
