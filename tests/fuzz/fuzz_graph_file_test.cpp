/// Structured fuzz driver for the dataset-graph file: corrupt one int of
/// an index field (the topology's, the endpoints, the LUT table's arc map
/// or the cell edges' table rows) or a count (the header's node and level
/// counts, the LUT table's row count) of a saved graph, re-seal the CRC so
/// the checksum cannot catch it, and check the load_graph contract — the
/// mutant is either rejected with a CheckError, or it loads as a graph
/// that the served path (embed, then a full read over the level CSR)
/// answers without undefined behavior (the sanitizer jobs run this driver
/// under ASan/UBSan).

#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/timing_gnn.hpp"
#include "data/graph_io.hpp"
#include "testing/fixtures.hpp"
#include "testing/graph_file.hpp"
#include "util/check.hpp"

namespace tg {
namespace {

constexpr int kLevels = 5;
constexpr int kWidth = 6;
constexpr int kLutRows = 4;

nn::Tensor uniform(std::int64_t rows, std::int64_t cols, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(rows * cols));
  for (float& x : v) x = static_cast<float>(rng.uniform(0.0, 1.0));
  return nn::Tensor::from_vector(std::move(v), rows, cols);
}

/// A small synthetic pin graph of kLevels levels, kWidth pins each. Above
/// level 0, pins alternate between net sinks (one net edge from the pin
/// below) and cell outputs (cell edges from two pins below), so both edge
/// kinds feed every level; the top level holds the endpoints.
data::DatasetGraph fuzz_graph() {
  data::Topology::Arrays t;
  t.num_nodes = kLevels * kWidth;
  t.num_levels = kLevels;
  for (int v = 0; v < t.num_nodes; ++v) {
    const int level = v / kWidth;
    const int pos = v % kWidth;
    t.node_level.push_back(level);
    if (level == 0) continue;
    const int below = (level - 1) * kWidth;
    if (pos % 2 == 0) {
      t.net_src.push_back(below + pos);
      t.net_dst.push_back(v);
    } else {
      for (const int u : {below + pos, below + (pos + 1) % kWidth}) {
        t.cell_src.push_back(u);
        t.cell_dst.push_back(v);
      }
    }
  }
  data::DatasetGraph g;
  g.name = "fuzz_graph";
  const auto num_net = static_cast<std::int64_t>(t.net_src.size());
  const auto num_cell = static_cast<std::int64_t>(t.cell_src.size());
  const int n = t.num_nodes;
  g.topo = std::make_shared<const data::Topology>(std::move(t), g.name);
  Rng rng(0x6A4F);
  g.node_feat = uniform(n, data::kNodeFeatureDim, rng);
  g.net_edge_feat = uniform(num_net, data::kNetEdgeFeatureDim, rng);
  data::LutTable table;
  table.rows = uniform(kLutRows, data::kCellEdgeFeatureDim, rng);
  table.cell_base = {0, 2, kLutRows};
  for (int r = 0; r < kLutRows; ++r) table.arc_row.push_back(r);
  g.lut_table = std::make_shared<const data::LutTable>(std::move(table));
  for (std::int64_t e = 0; e < num_cell; ++e) {
    g.cell_arc_lut.push_back(static_cast<int>(rng.uniform_int(0, kLutRows - 1)));
  }
  g.net_delay = nn::Tensor::zeros(n, kNumCorners);
  g.arrival = nn::Tensor::zeros(n, kNumCorners);
  g.slew = nn::Tensor::zeros(n, kNumCorners);
  g.rat = uniform(n, kNumCorners, rng);
  g.cell_delay = nn::Tensor::zeros(num_cell, kNumCorners);
  for (int v = (kLevels - 1) * kWidth; v < n; ++v) g.endpoints.push_back(v);
  g.endpoint_setup_slack.assign(g.endpoints.size(), 0.0);
  g.endpoint_hold_slack.assign(g.endpoints.size(), 0.0);
  g.clock_period = 1.0;
  return g;
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// One index array or count of the saved file: where its ints start, how
/// many.
struct Field {
  std::size_t offset = 0;
  std::size_t count = 0;
};

TEST(FuzzGraphFile, CorruptedIndicesAreCaughtOrStaySafe) {
  const data::DatasetGraph base = fuzz_graph();
  const std::string path = ::testing::TempDir() + "/tg_fuzz_graph.bin";
  data::save_graph(base, path);
  const std::vector<unsigned char> clean = slurp(path);

  // The low words of the u64 node and level counts in the header, then
  // the index arrays in file order, each searched after the previous one
  // (arrays with equal contents then resolve to their own slots).
  const data::Topology& t = *base.topo;
  const data::LutTable& table = *base.lut_table;
  const std::size_t counts = tg::testing::num_nodes_offset(base.name);
  std::vector<Field> fields{{counts, 1}, {counts + 8, 1}};
  std::size_t from = counts + 16;
  for (const std::vector<int>* a :
       {&table.cell_base, &table.arc_row, &base.cell_arc_lut, &t.net_src(),
        &t.net_dst(), &t.cell_src(), &t.cell_dst(), &t.node_level(),
        &base.endpoints}) {
    const std::size_t at = tg::testing::find_i32_array(clean, *a, from);
    ASSERT_LT(at, clean.size());
    if (a == &table.cell_base) {
      // The low word of the table's u64 row count: the rows tensor (u64
      // rows, u64 cols, its floats) sits just before cell_base's count.
      const std::size_t rows_at =
          at - 8 - 4 * static_cast<std::size_t>(table.rows.numel()) - 16;
      std::uint64_t stored = 0;
      std::memcpy(&stored, clean.data() + rows_at, sizeof(stored));
      ASSERT_EQ(stored, static_cast<std::uint64_t>(kLutRows));
      fields.push_back({rows_at, 1});
    }
    fields.push_back({at, a->size()});
    from = at + 4 * a->size();
  }

  core::TimingGnnConfig cfg;
  cfg.net.hidden = cfg.net.mlp_hidden = 8;
  cfg.prop.hidden = cfg.prop.mlp_hidden = cfg.prop.lut.mlp_hidden = 8;
  const core::TimingGnn model(cfg);

  const int n = base.num_nodes();
  const int iters = tg::testing::fuzz_iters();
  int caught = 0;
  for (int i = 0; i < iters; ++i) {
    Rng rng(0x6F11ULL * 1000003ULL + static_cast<std::uint64_t>(i));
    const auto pick = [&](std::size_t size) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
    };
    const Field& f = fields[pick(fields.size())];
    const std::size_t at = f.offset + 4 * pick(f.count);
    int old = 0;
    std::memcpy(&old, clean.data() + at, sizeof(old));
    const int values[] = {-1,      n,       n + 7,   INT_MIN,
                          INT_MAX, old - 1, old + 1,
                          static_cast<int>(rng.uniform_int(0, n - 1)),
                          static_cast<int>(rng.uniform_int(0, kLevels))};
    std::vector<unsigned char> bytes = clean;
    tg::testing::put_i32(bytes, at, values[pick(std::size(values))]);
    tg::testing::reseal_crc(bytes);
    spit(path, bytes);

    data::DatasetGraph g;
    try {
      g = data::load_graph(path);
    } catch (const CheckError&) {
      ++caught;
      continue;
    }
    // The loader accepted this mutant, so a served read of it must run
    // clean: every row propagated, every endpoint answered.
    core::ReadCache cache;
    cache.embedding = model.embed(g);
    EXPECT_EQ(model.read(g, g.endpoints, data::GraphDelta{}, /*full=*/true,
                         cache),
              g.num_nodes())
        << "iteration " << i;
    EXPECT_EQ(cache.slack.size(), g.endpoints.size()) << "iteration " << i;
  }
  std::remove(path.c_str());
  // Out-of-range values make up most draws; in-range ones that keep every
  // edge climbing a level load as a different, valid graph.
  EXPECT_GT(caught, iters / 3);
  EXPECT_LT(caught, iters);
}

}  // namespace
}  // namespace tg
