/// \file serve_slack.cpp
/// Serving-plane latency/throughput bench (DESIGN.md §12). Four phases:
///
///   serve_predict/N        sequential full-graph GNN predictions on a
///                          pristine session (N = graph nodes) — the
///                          batcher's unit cost,
///   serve_move/N           sequential single-move ECO requests — the
///                          incremental dirty-cone fast path,
///   serve_mixed/N          concurrent clients (2x workers) replaying a
///                          mixed move/predict stream (each move bounces
///                          instance 0 between two cells) under a deadline —
///                          the serving p50/p99 the ladder exists to bound,
///   serve_mixed_designs/N  one client per template over >= 4 distinct
///                          designs x 3 clock corners (pure batchable
///                          predictions) on a single-worker server: one
///                          compute slot multiplexed across the tenants
///                          (N = sum of template nodes).
///
/// Writes BENCH_serve_slack.json (`--json=...`): per-phase median/p90
/// request latency as the gated entries, plus "serve" and
/// "serve_mixed_designs" sections with throughput and percentiles. Gated
/// by ci/check_bench.py like the micro benches.
///
///   ./serve_slack [--design=spm] [--scale=0.03125] [--requests=32]
///                 [--workers=2] [--mixed-designs=spm,zipdiv,...]
///                 [--json=BENCH_serve_slack.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"

namespace tg {
namespace {

double percentile_s(std::vector<double>& s, double p) {
  if (s.empty()) return 0.0;
  std::sort(s.begin(), s.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(s.size() - 1) + 0.5);
  return s[std::min(idx, s.size() - 1)];
}

bench_json::Entry make_entry(const std::string& op, long long size,
                             int threads, std::vector<double>& lat_s) {
  bench_json::Entry e;
  e.op = op;
  e.size = size;
  e.threads = threads;
  e.name = op + "/" + std::to_string(size);
  e.iterations = static_cast<long long>(lat_s.size());
  e.median_s = percentile_s(lat_s, 0.50);
  e.p90_s = percentile_s(lat_s, 0.90);
  return e;
}

double seconds(std::chrono::nanoseconds ns) {
  return static_cast<double>(ns.count()) / 1e9;
}

/// Instance 0's cell and another cell of the same function: bouncing the
/// instance between the two gives every move request real work.
std::pair<int, int> bounce_cells(serve::SlackServer& server,
                                 serve::SessionId id) {
  int cell_a = -1, cell_b = -1;
  server.inspect(id, [&](const serve::SessionView& v) {
    cell_a = v.design.instance(0).cell_id;
    cell_b = cell_a;
    const Library& lib = v.design.library();
    for (int c : lib.cells_of_function(lib.cell(cell_a).function)) {
      if (c != cell_a) {
        cell_b = c;
        break;
      }
    }
  });
  return {cell_a, cell_b};
}

}  // namespace
}  // namespace tg

int main(int argc, char** argv) {
  using namespace tg;
  const CliOptions opts(argc, argv);
  opts.require_known(
      {"design", "scale", "requests", "workers", "mixed-designs", "json"});
  const std::string design = opts.get("design", "spm");
  const double scale = opts.get_double("scale", 0.03125);
  const int requests = static_cast<int>(opts.get_int("requests", 32));
  const int workers = static_cast<int>(opts.get_int("workers", 2));
  const std::string json = opts.get("json", "BENCH_serve_slack.json");
  std::vector<std::string> mix;
  for (const std::string& d :
       split(opts.get("mixed-designs", "spm,zipdiv,xtea,cic_decimator"), ',')) {
    if (!d.empty()) mix.push_back(d);
  }

  serve::ServeOptions so;
  so.workers = workers;
  serve::SlackServer server(so);

  long long nodes = 0;
  const serve::SessionId warm = server.open_session(design, scale);
  server.inspect(warm, [&](const serve::SessionView& v) {
    nodes = static_cast<long long>(v.design.num_pins());
  });
  std::printf("serve_slack: %s/%.5f (%lld nodes), %d requests/phase, "
              "%d workers\n",
              design.c_str(), scale, nodes, requests, workers);

  std::vector<bench_json::Entry> entries;

  // Phase 1: pristine full-graph predictions (template-served GNN).
  {
    std::vector<double> lat;
    lat.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
      serve::Request req;
      req.session = warm;
      const serve::Response r = server.call(std::move(req));
      if (r.status != serve::ResponseStatus::kShed) {
        lat.push_back(seconds(r.latency));
      }
    }
    entries.push_back(make_entry("serve_predict", nodes, 1, lat));
  }

  // Phase 2: single-move ECO requests (incremental cone path). Bounce one
  // instance between two same-function cells so every request has work.
  {
    const serve::SessionId eco = server.open_session(design, scale);
    const auto [cell_a, cell_b] = bounce_cells(server, eco);
    std::vector<double> lat;
    lat.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
      serve::Request req;
      req.session = eco;
      req.moves.push_back({0, i % 2 == 0 ? cell_b : cell_a});
      const serve::Response r = server.call(std::move(req));
      if (r.status != serve::ResponseStatus::kShed) {
        lat.push_back(seconds(r.latency));
      }
    }
    entries.push_back(make_entry("serve_move", nodes, 1, lat));
  }

  // Phase 3: mixed concurrent stream under a generous deadline.
  long long ok = 0, degraded = 0, shed = 0;
  double throughput = 0.0, p50_ms = 0.0, p99_ms = 0.0;
  {
    const int clients = 2 * workers;
    const int per_client = std::max(1, requests / 2);
    std::vector<serve::SessionId> ids;
    for (int c = 0; c < clients; ++c) {
      ids.push_back(server.open_session(design, scale));
    }
    std::vector<std::vector<serve::Response>> got(
        static_cast<std::size_t>(clients));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const auto [cell_a, cell_b] =
            bounce_cells(server, ids[static_cast<std::size_t>(c)]);
        for (int i = 0; i < per_client; ++i) {
          serve::Request req;
          req.session = ids[static_cast<std::size_t>(c)];
          req.budget = std::chrono::milliseconds(500);
          // Every other request moves instance 0, to the other cell each
          // time, as phase 2 does.
          if (i % 2 == 0) req.moves.push_back({0, i % 4 == 0 ? cell_b : cell_a});
          got[static_cast<std::size_t>(c)].push_back(
              server.call(std::move(req)));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall =
        seconds(std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0));
    std::vector<double> lat;
    for (const auto& per : got) {
      for (const serve::Response& r : per) {
        switch (r.status) {
          case serve::ResponseStatus::kOk: ++ok; break;
          case serve::ResponseStatus::kDegraded: ++degraded; break;
          case serve::ResponseStatus::kShed: ++shed; break;
        }
        if (r.status != serve::ResponseStatus::kShed) {
          lat.push_back(seconds(r.latency));
        }
      }
    }
    const long long total = static_cast<long long>(clients) * per_client;
    throughput = static_cast<double>(total) / wall;
    std::vector<double> lat_copy = lat;
    p50_ms = percentile_s(lat_copy, 0.50) * 1e3;
    p99_ms = percentile_s(lat_copy, 0.99) * 1e3;
    entries.push_back(make_entry("serve_mixed", nodes, clients, lat));
  }
  server.shutdown();

  // Phase 4: the multi-tenant mix. One client per template (no same-
  // template sharing to hide behind) drives pure batchable predictions
  // through a fresh server pinned to a single worker, i.e. one compute
  // slot multiplexed across K tenants, one solo forward per request.
  double md_throughput = 0.0, md_p50_ms = 0.0, md_p99_ms = 0.0;
  const int md_clients = 3 * static_cast<int>(mix.size());
  {
    serve::ServeOptions mo;
    mo.workers = 1;
    mo.queue_capacity = 64;
    mo.max_batch = std::max(8, md_clients);
    serve::SlackServer s(mo);
    // Three tenants per design: the suite's calibrated clock, a tight ECO
    // corner and a relaxed what-if corner. Distinct clock factors are
    // distinct templates (design-hash keyed), so this is a 3x-wider honest
    // mix — every tenant is a separate graph and a separate forward.
    static constexpr double kCorners[] = {0.0, 0.92, 1.08};
    const int per_client = std::max(8, requests);
    std::vector<serve::SessionId> ids;
    for (int c = 0; c < md_clients; ++c) {
      const std::string& tenant = mix[static_cast<std::size_t>(c) % mix.size()];
      const double clock_factor =
          kCorners[static_cast<std::size_t>(c) / mix.size()];
      ids.push_back(s.open_session(tenant, scale, clock_factor));
    }
    long long md_nodes = 0;
    for (int c = 0; c < md_clients; ++c) {
      s.inspect(ids[static_cast<std::size_t>(c)],
                [&](const serve::SessionView& v) {
                  md_nodes += static_cast<long long>(v.design.num_pins());
                });
    }
    // Untimed warmup wave: a concurrent round per tenant so the steady
    // state being measured starts with the embedding cache hot.
    {
      std::vector<std::thread> warmers;
      for (int c = 0; c < md_clients; ++c) {
        warmers.emplace_back([&, c] {
          for (int i = 0; i < 2; ++i) {
            serve::Request req;
            req.session = ids[static_cast<std::size_t>(c)];
            (void)s.call(std::move(req));
          }
        });
      }
      for (std::thread& t : warmers) t.join();
    }
    std::vector<std::vector<double>> lat(static_cast<std::size_t>(md_clients));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < md_clients; ++c) {
      threads.emplace_back([&, c] {
        for (int i = 0; i < per_client; ++i) {
          serve::Request req;
          req.session = ids[static_cast<std::size_t>(c)];
          const serve::Response r = s.call(std::move(req));
          if (r.status != serve::ResponseStatus::kShed) {
            lat[static_cast<std::size_t>(c)].push_back(seconds(r.latency));
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall =
        seconds(std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0));
    md_throughput =
        static_cast<double>(static_cast<long long>(md_clients) * per_client) /
        wall;
    s.shutdown();
    std::vector<double> md_lat;
    for (auto& per : lat) md_lat.insert(md_lat.end(), per.begin(), per.end());
    std::vector<double> md_copy = md_lat;
    md_p50_ms = percentile_s(md_copy, 0.50) * 1e3;
    md_p99_ms = percentile_s(md_copy, 0.99) * 1e3;
    entries.push_back(
        make_entry("serve_mixed_designs", md_nodes, md_clients, md_lat));
  }

  for (const bench_json::Entry& e : entries) {
    std::printf("  %-24s median %9.3f ms  p90 %9.3f ms  (%lld samples)\n",
                e.name.c_str(), e.median_s * 1e3, e.p90_s * 1e3,
                e.iterations);
  }
  std::printf("  mixed: %.1f req/s, p50 %.3f ms, p99 %.3f ms "
              "(%lld ok, %lld degraded, %lld shed)\n",
              throughput, p50_ms, p99_ms, ok, degraded, shed);
  std::printf("  mixed-designs (%d templates): %.1f req/s, p50 %.3f ms, "
              "p99 %.3f ms\n",
              md_clients, md_throughput, md_p50_ms, md_p99_ms);

  char extra[1024];
  std::snprintf(
      extra, sizeof(extra),
      "\"serve\": {\"throughput_rps\": %.3f, \"p50_ms\": %.6f, "
      "\"p99_ms\": %.6f, \"ok\": %lld, \"degraded\": %lld, "
      "\"shed\": %lld},\n  "
      "\"serve_mixed_designs\": {\"templates\": %d, "
      "\"throughput_rps\": %.3f, \"p50_ms\": %.6f, \"p99_ms\": %.6f}",
      throughput, p50_ms, p99_ms, ok, degraded, shed, md_clients,
      md_throughput, md_p50_ms, md_p99_ms);
  if (!bench_json::write_file(json, "serve_slack", workers, entries, extra)) {
    return 1;
  }
  std::printf("wrote %s\n", json.c_str());
  return 0;
}
