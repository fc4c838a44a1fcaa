/// \file export_main.cpp
/// `timgnn_export` — one-shot artifact exporter for interoperability:
/// generates (or regenerates) a suite benchmark and writes every
/// interchange artifact the repository supports:
///   <out>/<design>.v       structural Verilog netlist
///   <out>/<design>.pl      placement (die + instance/port positions)
///   <out>/<design>.lib     the synthetic library, Liberty-style text
///   <out>/<design>.rpt     sign-off-style timing report (routed, golden STA)
///   <out>/<design>.tgdg    extracted dataset graph (features + labels)
///
///   timgnn_export --design=picorv32a --scale=0.0625 --out=export_dir

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "data/dataset.hpp"
#include "data/graph_io.hpp"
#include "liberty/liberty_io.hpp"
#include "liberty/library_builder.hpp"
#include "netlist/verilog_io.hpp"
#include "sta/report.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

int main(int argc, char** argv) {
  using namespace tg;
  const CliOptions opts(argc, argv);
  opts.require_known({"design", "scale", "out", "threads"});
  set_log_level(LogLevel::kWarn);
  configure_threads(opts);
  const std::string name = opts.get("design", "spm");
  const double scale = opts.get_double("scale", 1.0 / 20);
  const std::filesystem::path out_dir = opts.get("out", "export");

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.string().c_str(),
                 ec.message().c_str());
    return 1;
  }

  const Library library = build_library();
  const SuiteEntry entry = suite_entry(name, scale);

  data::DatasetOptions options;
  options.scale = scale;
  const data::DatasetGraph g =
      data::build_design_graph(entry, library, options);

  const auto path = [&](const char* ext) {
    return (out_dir / (name + ext)).string();
  };

  write_verilog_file(*g.design, path(".v"));
  write_placement_file(*g.design, path(".pl"));
  write_liberty_file(library, path(".lib"));
  data::save_graph(g, path(".tgdg"));
  {
    const TimingGraph graph(*g.design);
    const StaResult sta = run_sta(graph, *g.truth_routing);
    std::ofstream rpt(path(".rpt"));
    write_timing_report(rpt, graph, sta);
  }

  std::printf("exported %s (%d pins, %zu endpoints) to %s/\n", name.c_str(),
              g.num_nodes(), g.endpoints.size(), out_dir.string().c_str());
  std::printf("  %s.v     netlist (structural Verilog)\n", name.c_str());
  std::printf("  %s.pl    placement\n", name.c_str());
  std::printf("  %s.lib   library (Liberty-style)\n", name.c_str());
  std::printf("  %s.rpt   golden timing report\n", name.c_str());
  std::printf("  %s.tgdg  dataset graph (features + labels)\n", name.c_str());
  return 0;
}
