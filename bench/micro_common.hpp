#pragma once
/// \file micro_common.hpp
/// Shared driver for the google-benchmark micro benches: strips the
/// repo-specific flags before google-benchmark sees argv, records the
/// thread-pool size in the benchmark context (and therefore in
/// `--benchmark_out` JSON, keeping BENCH_*.json trajectories comparable
/// across machines), and implements the `--sweep` threads×size scaling
/// mode with a per-kernel speedup summary.
///
///   micro_sta --threads=8                 # pool size for the normal run
///   micro_sta --sweep                     # threads×size scaling matrix
///   micro_sta --sweep --sweep-threads=1,2,4,8,16
///   micro_sta --json                      # write BENCH_micro_sta.json
///   micro_sta --json=perf.json            # explicit output path
///
/// Sweep benchmarks are named `SWEEP_<kernel>/<size>/threads:<t>`; after
/// the run a `# sweep summary:` line per kernel/size reports the speedup
/// of the largest thread count over threads:1 — the number the scaling
/// regression check watches.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <utility>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "util/parallel.hpp"
#include "util/string_util.hpp"

namespace tg::bench_micro {

/// Console reporter that also collects per-run times so the sweep summary
/// can be printed after all benchmarks finished.
class ScalingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const std::string name = run.benchmark_name();
      const double secs =
          run.real_accumulated_time / static_cast<double>(run.iterations);
      all_runs_[name].push_back({run.iterations, secs});
      const std::size_t tag = name.find("/threads:");
      if (tag == std::string::npos) continue;
      const int threads = std::atoi(name.c_str() + tag + 9);
      sweep_secs_[name.substr(0, tag)][threads] = secs;
    }
    ConsoleReporter::ReportRuns(report);
  }

  /// Per-benchmark entries (median/p90 across repetitions) for --json.
  [[nodiscard]] std::vector<bench_json::Entry> json_entries() const {
    std::vector<bench_json::Entry> out;
    for (const auto& [name, reps] : all_runs_) {
      std::vector<double> times;
      long long iters = 0;
      for (const auto& [it, secs] : reps) {
        times.push_back(secs);
        iters += it;
      }
      std::sort(times.begin(), times.end());
      bench_json::Entry e = bench_json::parse_name(name, num_threads());
      e.iterations = iters;
      e.median_s = times[times.size() / 2];
      e.p90_s = times[(times.size() * 9) / 10 < times.size()
                          ? (times.size() * 9) / 10
                          : times.size() - 1];
      out.push_back(std::move(e));
    }
    return out;
  }

  /// One `# sweep summary:` line per kernel/size: serial time, best time,
  /// and the speedup at the largest thread count vs threads:1.
  void print_summary() const {
    for (const auto& [kernel, by_threads] : sweep_secs_) {
      if (by_threads.empty()) continue;
      const auto t1 = by_threads.find(1);
      const auto& [tmax, tmax_secs] = *by_threads.rbegin();
      std::printf("# sweep summary: %s", kernel.c_str());
      for (const auto& [t, secs] : by_threads) {
        std::printf(" t%d=%.3fms", t, secs * 1e3);
      }
      if (t1 != by_threads.end() && tmax_secs > 0.0) {
        std::printf(" speedup@%d=%.2fx", tmax, t1->second / tmax_secs);
      }
      std::printf("\n");
    }
    std::fflush(stdout);
  }

 private:
  // kernel/size prefix -> thread count -> seconds per iteration.
  std::map<std::string, std::map<int, double>> sweep_secs_;
  // full name -> one (iterations, secs/iter) pair per repetition.
  std::map<std::string, std::vector<std::pair<long long, double>>> all_runs_;
};

/// Custom BENCHMARK_MAIN: handles --threads / --sweep / --sweep-threads,
/// then delegates the surviving argv to google-benchmark.
/// `register_sweep` registers the bench's SWEEP_* benchmarks for the given
/// thread counts (called only in sweep mode). `extra_json`, when provided,
/// is invoked after the benchmarks ran and must return a raw JSON member
/// (or "") appended to the --json file as a top-level section — e.g.
/// micro_sta's per-level occupancy histograms.
inline int run_micro_main(
    int argc, char** argv,
    const std::function<void(const std::vector<int>&)>& register_sweep,
    const std::function<std::string()>& extra_json = {}) {
  std::vector<char*> args;
  args.push_back(argv[0]);
  bool sweep = false;
  std::string json_path;
  bool want_json = false;
  std::vector<int> sweep_threads = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      set_num_threads(std::atoi(arg.c_str() + 10));
    } else if (arg == "--json") {
      want_json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      want_json = true;
      json_path = arg.substr(7);
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg.rfind("--sweep-threads=", 0) == 0) {
      sweep_threads.clear();
      for (const std::string& part : split(arg.substr(16), ',')) {
        const int t = std::atoi(part.c_str());
        if (t >= 1) sweep_threads.push_back(t);
      }
    } else {
      args.push_back(argv[i]);
    }
  }
  benchmark::AddCustomContext("tg_threads", std::to_string(num_threads()));
  if (sweep && !sweep_threads.empty()) {
    std::string list;
    for (int t : sweep_threads) {
      if (!list.empty()) list += ',';
      list += std::to_string(t);
    }
    benchmark::AddCustomContext("tg_sweep_threads", list);
    register_sweep(sweep_threads);
  }

  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  ScalingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (sweep) reporter.print_summary();
  if (want_json) {
    // Bench name = argv[0] basename; default path BENCH_<name>.json.
    std::string bench = argv[0];
    const std::size_t sep = bench.find_last_of('/');
    if (sep != std::string::npos) bench = bench.substr(sep + 1);
    if (json_path.empty()) json_path = "BENCH_" + bench + ".json";
    if (bench_json::write_file(json_path, bench, num_threads(),
                               reporter.json_entries(),
                               extra_json ? extra_json() : std::string())) {
      std::printf("# wrote %s\n", json_path.c_str());
    }
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace tg::bench_micro
