/// \file main.cpp
/// perfbench: one workload in one process (see README.md).
///
///   perfbench --workload=predict_mix --seed=1 --seconds=10 --trace=0
///             [--trace-out=trace.json]
///
/// Untraced (--trace=0): kReps rounds, each on a fresh workload object: a
/// timed setup (setup_s is their median), a timed window of
/// seconds / kReps, then the correctness oracle. Every window thus starts
/// from fresh servers and caches; throughput is the median window rate.
/// Traced (--trace=1): one setup, alternating untraced and traced windows
/// (their rate ratio is trace.overhead_frac), the oracle, then every layer
/// probe. All spans go to --trace-out as Chrome trace_event JSON, which
/// `tg_top --trace` renders.
///
/// stdout: a `shape {...}` line; `metric`, `layer` and `info` lines naming
/// every number with its unit and sample count; the first failing answer,
/// if any; and last the result object
///   {"correct": ..., "attempted": N, "failed": M,
///    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}

#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

#include "nn/kernels.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/obs/telemetry.hpp"
#include "util/obs/trace.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Rounds of an untraced run: each a timed setup and a timed window.
constexpr int kReps = 5;
/// Windows of a traced run, alternating untraced and traced.
constexpr int kTraceWindows = 4;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// How the metric lines name a workload's operations.
struct Words {
  const char* ops;
  const char* latency;
};

Words words_of(const std::string& workload) {
  if (workload == "predict_mix") return {"predict requests", "predict latency"};
  if (workload == "eco_stream") {
    return {"requests (moves and GNN reads)", "move latency"};
  }
  if (workload == "cold_design") {
    return {"ladders", "ladder time to first answers"};
  }
  return {"train steps", "train step time (epoch mean)"};
}

void print_line(const char* kind, const Metric& m,
                const std::string& note = {}) {
  std::printf("%s %s = %.6g %s", kind, m.name.c_str(), m.value,
              m.unit.c_str());
  if (!note.empty()) std::printf("  (%s)", note.c_str());
  std::printf("\n");
}

Metrics run_untraced(const std::string& name, std::uint64_t seed,
                     double seconds, Ledger& ledger) {
  std::vector<double> setup_s, rates, latency_ms;
  std::int64_t ops = 0;
  double wall_s = 0.0;
  Metrics info;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::unique_ptr<Workload> w = make_workload(name, seed, ledger);
    const tg::WallTimer t;
    w->setup();
    setup_s.push_back(t.seconds());
    const Phase p = w->run(seconds / kReps);
    rates.push_back(static_cast<double>(p.ops) / p.wall_s);
    ops += p.ops;
    wall_s += p.wall_s;
    latency_ms.insert(latency_ms.end(), p.latency_ms.begin(),
                      p.latency_ms.end());
    w->verify();
    if (rep + 1 == kReps) w->report(info);
  }
  const Summary lat = summarize(latency_ms);
  const Metrics metrics = {
      {"setup_s", median(setup_s), "s"},
      {"throughput_per_s", median(rates), "1/s"},
      {"latency_p50_ms", lat.p50, "ms"},
      {"latency_tail_ms", lat.tail, "ms"},
      {"peak_rss_mb",
       static_cast<double>(tg::obs::peak_rss_bytes()) / (1024.0 * 1024.0),
       "MB"},
  };
  const Words words = words_of(name);
  const std::string n = ", n=" + std::to_string(lat.count);
  char windows[96];
  std::snprintf(windows, sizeof(windows), "median of %d windows; %lld in %.2f s",
                kReps, static_cast<long long>(ops), wall_s);
  print_line("metric", metrics[0],
             "median of " + std::to_string(kReps) + " setups");
  print_line("metric", metrics[1], std::string(words.ops) + ", " + windows);
  print_line("metric", metrics[2], std::string(words.latency) + " p50" + n);
  print_line("metric", metrics[3],
             std::string(words.latency) + " p" +
                 std::to_string(lat.tail_pct) + n);
  print_line("metric", metrics[4], "process peak RSS");
  for (const Metric& m : info) print_line("info", m);
  return metrics;
}

Metrics run_traced(const std::string& name, std::uint64_t seed,
                   double seconds, Ledger& ledger,
                   const std::string& trace_out) {
  tg::obs::set_thread_name("main");
  std::unique_ptr<Workload> w = make_workload(name, seed, ledger);
  w->setup();
  double ops[2] = {0.0, 0.0};
  double wall_s[2] = {0.0, 0.0};
  for (int i = 0; i < kTraceWindows; ++i) {
    const int traced = i % 2;
    tg::obs::set_trace_level(traced != 0 ? tg::obs::kSpanCoarse : -1);
    Phase p;
    {
      TG_TRACE_SCOPE("bench/window", tg::obs::kSpanCoarse);
      p = w->run(seconds / kTraceWindows);
    }
    ops[traced] += static_cast<double>(p.ops);
    wall_s[traced] += p.wall_s;
  }
  tg::obs::set_trace_level(-1);
  w->verify();
  w.reset();

  Metrics metrics;
  tg::obs::set_trace_level(tg::obs::kSpanCoarse);
  run_layer_probes(seed, metrics);
  tg::obs::set_trace_level(-1);
  // Throughput lost to tracing: the untraced windows' rate over the traced.
  metrics.push_back({"trace.overhead_frac",
                     (ops[0] / wall_s[0]) / (ops[1] / wall_s[1]) - 1.0,
                     "ratio"});
  if (!tg::obs::write_trace_json(trace_out)) {
    throw std::runtime_error("cannot write the trace to " + trace_out);
  }
  std::printf("trace %s: %llu spans\n", trace_out.c_str(),
              static_cast<unsigned long long>(tg::obs::trace_stats().recorded));
  for (const Metric& m : metrics) print_line("layer", m);
  return metrics;
}

void print_result(const Ledger& ledger, const Metrics& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (ledger.wrong() == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(ledger.attempted()) +
                     ", \"failed\": " + std::to_string(ledger.failed()) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    line += (i == 0 ? "" : ", ") + json_string(m.name) +
            ": {\"value\": " + value + ", \"unit\": " + json_string(m.unit) +
            "}";
  }
  std::printf("%s}}\n", line.c_str());
}

int run_main(int argc, char** argv) {
  const tg::CliOptions opts(argc, argv);
  opts.require_known({"workload", "seed", "seconds", "trace", "trace-out"});
  const std::string name = opts.get("workload", "");
  const long long seed = opts.get_int("seed", 1);
  const double seconds = opts.get_double("seconds", 10.0);
  const bool trace = opts.get_int("trace", 0) != 0;
  const std::string trace_out = opts.get("trace-out", "perfbench-trace.json");
  if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
  if (!(seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  const Shape shape = workload_shape(name);
  tg::set_log_level(tg::LogLevel::kError);

  std::printf(
      "shape {\"workload\": %s, \"seed\": %lld, \"nproc\": %d, "
      "\"kernel_backend\": %s, \"tg_threads\": %d, \"server_workers\": %d, "
      "\"scale\": %s, \"build_type\": %s}\n",
      json_string(name).c_str(), seed, nproc(),
      json_string(tg::nn::kern::simd_name()).c_str(), shape.pool_threads,
      shape.server_workers, json_string(shape.scale).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str());
  Ledger ledger(name);
  const auto useed = static_cast<std::uint64_t>(seed);
  const Metrics metrics =
      trace ? run_traced(name, useed, seconds, ledger, trace_out)
            : run_untraced(name, useed, seconds, ledger);
  print_line("info", {"failed_frac", ledger.failed_frac(), "ratio"},
             std::to_string(ledger.failed()) + " of " +
                 std::to_string(ledger.attempted()) + " answers: " +
                 std::to_string(ledger.shed()) + " shed, " +
                 std::to_string(ledger.degraded()) + " degraded, " +
                 std::to_string(ledger.wrong()) + " wrong");
  if (const std::optional<Offender>& o = ledger.first_offender()) {
    std::printf(
        "first offender: workload=%s design=%s endpoint=%s got=%.17g "
        "expected=%.17g (%s)\n",
        o->workload.c_str(), o->design.c_str(), o->endpoint.c_str(), o->got,
        o->expected, o->what.c_str());
  }
  print_result(ledger, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
