/// The level CSR's per-row in-edge offsets (LevelCsr::net_row_off and
/// cell_row_off): the fused GNN walk takes each row's edge slice from them,
/// so they must cut net_perm / cell_perm exactly at destination changes, in
/// node_perm order, and agree with the per-level offsets.

#include <gtest/gtest.h>

#include <algorithm>

#include "data/dataset.hpp"
#include "liberty/library_builder.hpp"
#include "util/rng.hpp"

namespace tg::data {
namespace {

void expect_row_offsets(const Topology& topo) {
  const LevelCsr& csr = topo.csr();
  const auto n = static_cast<std::size_t>(topo.num_nodes());
  const auto check = [&](const std::vector<int>& row_off,
                         const std::vector<int>& off,
                         const std::vector<int>& perm,
                         const std::vector<int>& dst, const char* kind) {
    SCOPED_TRACE(kind);
    ASSERT_EQ(row_off.size(), n + 1);
    EXPECT_EQ(row_off.front(), 0);
    EXPECT_EQ(row_off.back(), static_cast<int>(perm.size()));
    EXPECT_TRUE(std::is_sorted(row_off.begin(), row_off.end()));
    for (std::size_t l = 0; l < off.size(); ++l) {
      EXPECT_EQ(row_off[static_cast<std::size_t>(csr.node_off[l])], off[l])
          << "level " << l;
    }
    int wrong_dst = 0;
    int unsorted = 0;
    for (std::size_t k = 0; k < n; ++k) {
      for (int i = row_off[k]; i < row_off[k + 1]; ++i) {
        const int e = perm[static_cast<std::size_t>(i)];
        wrong_dst += dst[static_cast<std::size_t>(e)] != csr.node_perm[k];
        unsorted += i > row_off[k] && perm[static_cast<std::size_t>(i) - 1] >= e;
      }
    }
    EXPECT_EQ(wrong_dst, 0);
    EXPECT_EQ(unsorted, 0);
  };
  check(csr.net_row_off, csr.net_off, csr.net_perm, topo.net_dst(), "net");
  check(csr.cell_row_off, csr.cell_off, csr.cell_perm, topo.cell_dst(),
        "cell");
}

TEST(LevelCsr, RowOffsetsSliceEachNodesInEdgesOnASuiteDesign) {
  const Library lib = build_library();
  DatasetOptions options;
  options.scale = 1.0 / 32;
  options.slim = true;
  const DatasetGraph g =
      build_design_graph(suite_entry("spm", options.scale), lib, options);
  ASSERT_GT(g.topo->net_src().size(), 0u);
  ASSERT_GT(g.topo->cell_src().size(), 0u);
  expect_row_offsets(*g.topo);
}

/// Random DAGs: empty levels, nodes with no in-edge and nodes with many,
/// parallel edges, edge ids in no particular order.
TEST(LevelCsr, RowOffsetsSliceEachNodesInEdgesOnFuzzedTopologies) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Topology::Arrays a;
    a.num_nodes = static_cast<int>(rng.uniform_int(2, 120));
    a.num_levels = static_cast<int>(rng.uniform_int(2, std::min(a.num_nodes, 9)));
    a.node_level.resize(static_cast<std::size_t>(a.num_nodes));
    for (int& l : a.node_level) {
      l = static_cast<int>(rng.uniform_int(0, a.num_levels - 1));
    }
    a.node_level[0] = 0;  // every edge needs a lower-level source
    const auto add_edges = [&](std::vector<int>& src, std::vector<int>& dst) {
      const auto edges = rng.uniform_int(0, 3 * a.num_nodes);
      for (std::int64_t e = 0; e < edges; ++e) {
        const auto u = static_cast<int>(rng.uniform_int(0, a.num_nodes - 1));
        const auto v = static_cast<int>(rng.uniform_int(0, a.num_nodes - 1));
        const int lu = a.node_level[static_cast<std::size_t>(u)];
        const int lv = a.node_level[static_cast<std::size_t>(v)];
        if (lu == lv) continue;
        src.push_back(lu < lv ? u : v);
        dst.push_back(lu < lv ? v : u);
      }
    };
    add_edges(a.net_src, a.net_dst);
    add_edges(a.cell_src, a.cell_dst);
    expect_row_offsets(Topology(std::move(a)));
  }
}

}  // namespace
}  // namespace tg::data
