#include "data/dataset.hpp"

#include <algorithm>
#include <functional>

#include "data/validate.hpp"
#include "netlist/validate.hpp"
#include "sta/validate.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/obs/metrics.hpp"
#include "util/obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace tg::data {

namespace {

/// Runs one invariant checker and escalates collected errors as a single
/// aggregated DiagError naming the benchmark and stage.
template <typename Check>
void gate(const std::string& benchmark, const char* stage, Check&& check) {
  if (validate_level() == ValidateLevel::kOff) return;
  DiagSink sink;
  check(sink);
  sink.throw_if_errors(benchmark + ": " + stage);
}

}  // namespace

DatasetGraph build_design_graph(const SuiteEntry& entry, const Library& library,
                                const DatasetOptions& options) {
  TG_TRACE_SCOPE("data/benchmark", obs::kSpanCoarse);
  const std::string& name = entry.spec.name;
  auto design = std::make_shared<Design>([&] {
    TG_TRACE_SCOPE("data/generate", obs::kSpanCoarse);
    return generate_design(entry.spec, library);
  }());
  if (options.post_generate) options.post_generate(*design);
  gate(name, "post-generate design check",
       [&](DiagSink& s) { validate_design(*design, s); });

  {
    TG_TRACE_SCOPE("data/place", obs::kSpanCoarse);
    place_design(*design, options.placer);
  }
  gate(name, "post-place check", [&](DiagSink& s) {
    validate_placement(*design, s);
    if (validate_level() == ValidateLevel::kFull) validate_design(*design, s);
  });

  auto truth = std::make_shared<DesignRouting>([&] {
    TG_TRACE_SCOPE("data/route", obs::kSpanCoarse);
    return route_design(*design, options.truth_routing);
  }());

  const TimingGraph graph(*design);
  gate(name, "timing graph check",
       [&](DiagSink& s) { validate_timing_graph(graph, s); });

  StaResult sta;
  {
    TG_TRACE_SCOPE("data/sta", obs::kSpanCoarse);
    sta = run_sta(graph, *truth, options.sta);
    design->set_period(
        calibrated_period(*design, sta.arrival, entry.clock_factor));
    // The period reaches only the endpoints' required times, so the
    // backward sweep under it gives what a second run_sta would, bit for
    // bit; sta_seconds stays the full run's.
    sta_detail::compute_required(graph, options.sta, design->clock_period(),
                                 sta);
  }
  gate(name, "STA finiteness check",
       [&](DiagSink& s) { check_sta_finite(graph, sta, s); });

  DatasetGraph g = [&] {
    TG_TRACE_SCOPE("data/extract", obs::kSpanCoarse);
    return extract_graph(*design, graph, *truth, sta);
  }();
  g.is_test = entry.is_test;
  gate(name, "extracted graph check",
       [&](DiagSink& s) { validate_dataset_graph(g, s); });
  TG_METRIC_COUNT("data/benchmarks_built", 1);
  if (!options.slim) {
    g.design = design;
    g.truth_routing = truth;
  }
  TG_INFO("dataset: " << g.name << " nodes=" << g.num_nodes()
                      << " net_edges=" << g.topo->net_src().size()
                      << " cell_edges=" << g.topo->cell_src().size()
                      << " endpoints=" << g.endpoints.size()
                      << " levels=" << g.num_levels()
                      << " route=" << g.route_seconds << "s");
  return g;
}

SuiteDataset build_suite_dataset(const Library& library,
                                 const DatasetOptions& options,
                                 const std::vector<std::string>& only) {
  std::vector<SuiteEntry> selected;
  for (const SuiteEntry& entry : table1_suite(options.scale)) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), entry.spec.name) == only.end()) {
      continue;
    }
    selected.push_back(entry);
  }
  TG_CHECK(!selected.empty());

  // One task per benchmark. Every stochastic stage (generation, placement
  // jitter) draws from the entry's own seeded Rng stream, so each slot's
  // graph is independent of which thread or order ran it; suite order is
  // preserved by writing results into pre-sized slots. A benchmark whose
  // pipeline throws is quarantined — the slot stays empty and the failure
  // text is recorded — instead of aborting the whole suite build.
  TG_TRACE_SCOPE("data/suite_build", obs::kSpanCoarse);
  std::vector<DatasetGraph> slots(selected.size());
  std::vector<char> failed(selected.size(), 0);
  std::vector<std::string> reports(selected.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    tasks.push_back([&, i] {
      try {
        slots[i] = build_design_graph(selected[i], library, options);
      } catch (const std::exception& e) {
        failed[i] = 1;
        reports[i] = e.what();
      }
    });
  }
  parallel_invoke(tasks);

  SuiteDataset out;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (failed[i]) {
      TG_METRIC_COUNT("data/quarantined", 1);
      out.quarantined.push_back(
          QuarantinedBenchmark{selected[i].spec.name, reports[i]});
      continue;
    }
    const int id = static_cast<int>(out.graphs.size());
    (selected[i].is_test ? out.test_ids : out.train_ids).push_back(id);
    out.graphs.push_back(std::move(slots[i]));
  }

  if (!out.quarantined.empty()) {
    TG_WARN("dataset: quarantined " << out.quarantined.size() << " of "
                                    << selected.size() << " benchmarks:");
    for (const QuarantinedBenchmark& q : out.quarantined) {
      TG_WARN("  quarantined '" << q.name << "':\n" << q.report);
    }
  }
  TG_CHECK_MSG(!out.graphs.empty(),
               "all " << selected.size()
                      << " benchmarks were quarantined — no usable data");
  return out;
}

}  // namespace tg::data
