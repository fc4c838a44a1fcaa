#include "data/graph_io.hpp"

#include <cstdint>

#include "data/validate.hpp"
#include "util/check.hpp"
#include "util/io.hpp"

namespace tg::data {

namespace {

// "TGD2" v5: u32 magic + u32 version, the body, CRC-32 trailer, atomic
// commit. The body holds the topology's source arrays only; the loader
// rebuilds (and range-checks) every derived index, net_sinks included,
// through the Topology constructor. The cell-edge features are the LUT
// table once (rows and arc map), then one table row index per cell edge.
constexpr std::uint32_t kMagic = 0x32444754;  // "TGD2" (LE bytes)
constexpr std::uint32_t kVersion = 5;

void write_tensor(io::BinaryWriter& out, const nn::Tensor& t) {
  out.write_u64(static_cast<std::uint64_t>(t.rows()));
  out.write_u64(static_cast<std::uint64_t>(t.cols()));
  out.write_f32_span(t.data());
}

nn::Tensor read_tensor(io::BinaryReader& in, const char* what) {
  const std::uint64_t rows = in.read_u64(what);
  const std::uint64_t cols = in.read_u64(what);
  TG_CHECK_MSG(rows < (1ull << 31) && cols < (1ull << 31),
               in.path() << ": implausible shape " << rows << "x" << cols
                         << " for " << what << " at offset " << in.offset());
  std::vector<float> data = in.read_f32_vec(rows * cols, what);
  return nn::Tensor::from_vector(std::move(data),
                                 static_cast<std::int64_t>(rows),
                                 static_cast<std::int64_t>(cols));
}

void write_body(io::BinaryWriter& out, const DatasetGraph& g) {
  const Topology& topo = *g.topo;
  out.write_string(g.name);
  out.write_u64(g.is_test ? 1 : 0);
  out.write_u64(static_cast<std::uint64_t>(topo.num_nodes()));
  out.write_u64(static_cast<std::uint64_t>(topo.num_levels()));
  out.write_f64(g.clock_period);
  out.write_f64(g.route_seconds);
  out.write_f64(g.sta_seconds);

  write_tensor(out, g.node_feat);
  write_tensor(out, g.net_edge_feat);
  write_tensor(out, g.lut_table->rows);
  out.write_i32_vec(g.lut_table->cell_base);
  out.write_i32_vec(g.lut_table->arc_row);
  out.write_i32_vec(g.cell_arc_lut);
  out.write_i32_vec(topo.net_src());
  out.write_i32_vec(topo.net_dst());
  out.write_i32_vec(topo.cell_src());
  out.write_i32_vec(topo.cell_dst());
  out.write_i32_vec(topo.node_level());

  write_tensor(out, g.net_delay);
  write_tensor(out, g.arrival);
  write_tensor(out, g.slew);
  write_tensor(out, g.rat);
  write_tensor(out, g.cell_delay);
  out.write_i32_vec(g.endpoints);
  out.write_f64_vec(g.endpoint_setup_slack);
  out.write_f64_vec(g.endpoint_hold_slack);

  // Table-1 stats.
  out.write_u64(static_cast<std::uint64_t>(g.stats.num_nodes));
  out.write_u64(static_cast<std::uint64_t>(g.stats.num_net_edges));
  out.write_u64(static_cast<std::uint64_t>(g.stats.num_cell_edges));
  out.write_u64(static_cast<std::uint64_t>(g.stats.num_endpoints));
  out.write_u64(static_cast<std::uint64_t>(g.stats.num_instances));
  out.write_u64(static_cast<std::uint64_t>(g.stats.num_nets));
  out.write_u64(static_cast<std::uint64_t>(g.stats.num_ffs));
}

DatasetGraph read_body(io::BinaryReader& in) {
  DatasetGraph g;
  Topology::Arrays topo;
  g.name = in.read_string("design name");
  g.is_test = in.read_u64("is_test flag") != 0;
  topo.num_nodes = static_cast<int>(in.read_u64("num_nodes"));
  topo.num_levels = static_cast<int>(in.read_u64("num_levels"));
  g.clock_period = in.read_f64("clock_period");
  g.route_seconds = in.read_f64("route_seconds");
  g.sta_seconds = in.read_f64("sta_seconds");

  g.node_feat = read_tensor(in, "node_feat");
  g.net_edge_feat = read_tensor(in, "net_edge_feat");
  {
    LutTable table;
    table.rows = read_tensor(in, "lut_table.rows");
    table.cell_base = in.read_i32_vec("lut_table.cell_base");
    table.arc_row = in.read_i32_vec("lut_table.arc_row");
    g.lut_table = std::make_shared<const LutTable>(std::move(table));
  }
  g.cell_arc_lut = in.read_i32_vec("cell_arc_lut");
  topo.net_src = in.read_i32_vec("net_src");
  topo.net_dst = in.read_i32_vec("net_dst");
  topo.cell_src = in.read_i32_vec("cell_src");
  topo.cell_dst = in.read_i32_vec("cell_dst");
  topo.node_level = in.read_i32_vec("node_level");

  g.net_delay = read_tensor(in, "net_delay");
  g.arrival = read_tensor(in, "arrival");
  g.slew = read_tensor(in, "slew");
  g.rat = read_tensor(in, "rat");
  g.cell_delay = read_tensor(in, "cell_delay");
  g.endpoints = in.read_i32_vec("endpoints");
  g.endpoint_setup_slack = in.read_f64_vec("endpoint_setup_slack");
  g.endpoint_hold_slack = in.read_f64_vec("endpoint_hold_slack");

  g.stats.num_nodes = static_cast<long long>(in.read_u64("stats.num_nodes"));
  g.stats.num_net_edges =
      static_cast<long long>(in.read_u64("stats.num_net_edges"));
  g.stats.num_cell_edges =
      static_cast<long long>(in.read_u64("stats.num_cell_edges"));
  g.stats.num_endpoints =
      static_cast<long long>(in.read_u64("stats.num_endpoints"));
  g.stats.num_instances =
      static_cast<long long>(in.read_u64("stats.num_instances"));
  g.stats.num_nets = static_cast<long long>(in.read_u64("stats.num_nets"));
  g.stats.num_ffs = static_cast<long long>(in.read_u64("stats.num_ffs"));

  // Rejects out-of-range indices before anything derives from them, then
  // checks the tensors against the topology.
  g.topo = std::make_shared<const Topology>(std::move(topo), in.path());
  DiagSink sink;
  validate_dataset_graph(g, sink, ValidateLevel::kFast);
  sink.throw_if_errors(in.path());
  return g;
}

}  // namespace

void save_graph(const DatasetGraph& g, const std::string& path) {
  io::BinaryWriter out(path);
  out.write_u32(kMagic);
  out.write_u32(kVersion);
  write_body(out, g);
  out.commit();
}

DatasetGraph load_graph(const std::string& path) {
  io::BinaryReader in(path);
  TG_CHECK_MSG(in.read_u32("magic") == kMagic,
               "bad dataset-graph magic in " << path);
  in.verify_crc();
  const std::uint32_t version = in.read_u32("format version");
  TG_CHECK_MSG(version == kVersion,
               path << ": unsupported dataset-graph version " << version);
  DatasetGraph g = read_body(in);
  in.expect_eof();
  return g;
}

}  // namespace tg::data
