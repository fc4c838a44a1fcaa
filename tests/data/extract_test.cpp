#include "data/extract.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "data/dataset.hpp"
#include "liberty/library_builder.hpp"
#include "testing/lut_rows.hpp"
#include "util/rng.hpp"

namespace tg::data {
namespace {

/// One shared extraction for the whole file (expensive to build).
class ExtractTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new Library(build_library());
    DatasetOptions options;
    options.scale = 1.0 / 32;
    graph_ = new DatasetGraph(
        build_design_graph(suite_entry("usb", options.scale), *lib_, options));
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete lib_;
    graph_ = nullptr;
    lib_ = nullptr;
  }

  static Library* lib_;
  static DatasetGraph* graph_;
};

Library* ExtractTest::lib_ = nullptr;
DatasetGraph* ExtractTest::graph_ = nullptr;

TEST_F(ExtractTest, ShapesMatchPaperTables) {
  const DatasetGraph& g = *graph_;
  EXPECT_EQ(g.node_feat.rows(), g.num_nodes());
  EXPECT_EQ(g.node_feat.cols(), kNodeFeatureDim);
  EXPECT_EQ(g.net_edge_feat.rows(),
            static_cast<std::int64_t>(g.topo->net_src().size()));
  EXPECT_EQ(g.net_edge_feat.cols(), kNetEdgeFeatureDim);
  const nn::Tensor cell_edge_feat = tg::testing::cell_edge_rows(g);
  EXPECT_EQ(cell_edge_feat.rows(),
            static_cast<std::int64_t>(g.topo->cell_src().size()));
  EXPECT_EQ(cell_edge_feat.cols(), 512);
  EXPECT_EQ(g.net_delay.rows(), g.num_nodes());
  EXPECT_EQ(g.arrival.cols(), kNumCorners);
  EXPECT_EQ(g.cell_delay.rows(),
            static_cast<std::int64_t>(g.topo->cell_src().size()));
}

TEST_F(ExtractTest, StatsMatchArrays) {
  const DatasetGraph& g = *graph_;
  EXPECT_EQ(g.stats.num_nodes, g.num_nodes());
  EXPECT_EQ(g.stats.num_net_edges,
            static_cast<long long>(g.topo->net_src().size()));
  EXPECT_EQ(g.stats.num_cell_edges,
            static_cast<long long>(g.topo->cell_src().size()));
  EXPECT_EQ(g.stats.num_endpoints, static_cast<long long>(g.endpoints.size()));
}

TEST_F(ExtractTest, FeaturesAreFinite) {
  const DatasetGraph& g = *graph_;
  for (float v : g.node_feat.data()) EXPECT_TRUE(std::isfinite(v));
  for (float v : g.net_edge_feat.data()) EXPECT_TRUE(std::isfinite(v));
  const nn::Tensor cell_edge_feat = tg::testing::cell_edge_rows(g);
  for (float v : cell_edge_feat.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(ExtractTest, NodeFeatureSemantics) {
  const DatasetGraph& g = *graph_;
  const Design& d = *g.design;
  for (PinId p = 0; p < d.num_pins(); p += 11) {
    EXPECT_FLOAT_EQ(g.node_feat.at(p, 0), d.pin(p).is_port ? 1.0f : 0.0f);
    EXPECT_FLOAT_EQ(g.node_feat.at(p, 1), d.pin(p).drives_net ? 1.0f : 0.0f);
    // The four boundary distances sum to (W+H) * kDistScale.
    const float sum = g.node_feat.at(p, 2) + g.node_feat.at(p, 3) +
                      g.node_feat.at(p, 4) + g.node_feat.at(p, 5);
    EXPECT_NEAR(sum,
                (d.die().width() + d.die().height()) * kDistScale, 1e-3);
  }
}

TEST_F(ExtractTest, CellEdgeValidFlagsAllOne) {
  const nn::Tensor cell_edge_feat = tg::testing::cell_edge_rows(*graph_);
  for (std::int64_t e = 0; e < cell_edge_feat.rows(); e += 7) {
    for (int l = 0; l < kCellEdgeValidDim; ++l) {
      EXPECT_FLOAT_EQ(cell_edge_feat.at(e, l), 1.0f);
    }
  }
}

TEST_F(ExtractTest, LutAxisIndicesAscending) {
  const nn::Tensor cell_edge_feat = tg::testing::cell_edge_rows(*graph_);
  // Within each LUT's 7 slew-axis entries, values ascend.
  for (std::int64_t e = 0; e < std::min<std::int64_t>(cell_edge_feat.rows(), 20); ++e) {
    for (int l = 0; l < kNumLutsPerArc; ++l) {
      const int base = kCellEdgeValidDim + l * 2 * kLutDim;
      for (int i = 1; i < kLutDim; ++i) {
        EXPECT_GT(cell_edge_feat.at(e, base + i),
                  cell_edge_feat.at(e, base + i - 1));
      }
    }
  }
}

TEST_F(ExtractTest, LabelsMatchGoldenSta) {
  const DatasetGraph& g = *graph_;
  // Re-run the golden STA and compare a sample of labels.
  const TimingGraph tgraph(*g.design);
  const StaResult sta = run_sta(tgraph, *g.truth_routing);
  for (PinId p = 0; p < g.num_nodes(); p += 13) {
    for (int c = 0; c < kNumCorners; ++c) {
      EXPECT_NEAR(g.arrival.at(p, c),
                  static_cast<float>(sta.arrival[static_cast<std::size_t>(p)][c]), 1e-4);
      EXPECT_NEAR(g.slew.at(p, c),
                  static_cast<float>(sta.slew[static_cast<std::size_t>(p)][c]) *
                      kSlewLabelScale,
                  1e-3);
    }
  }
}

TEST_F(ExtractTest, EndpointsAndSinksConsistent) {
  const DatasetGraph& g = *graph_;
  const Design& d = *g.design;
  for (int ep : g.endpoints) EXPECT_TRUE(d.is_endpoint(ep));
  // Every net edge's dst appears in net_sinks exactly once.
  std::vector<int> count(static_cast<std::size_t>(g.num_nodes()), 0);
  for (int s : g.topo->net_sinks()) ++count[static_cast<std::size_t>(s)];
  for (int dst : g.topo->net_dst()) {
    EXPECT_EQ(count[static_cast<std::size_t>(dst)], 1);
  }
}

TEST_F(ExtractTest, SlackVectorsAlignedWithEndpoints) {
  const DatasetGraph& g = *graph_;
  EXPECT_EQ(g.endpoint_setup_slack.size(), g.endpoints.size());
  EXPECT_EQ(g.endpoint_hold_slack.size(), g.endpoints.size());
  for (double s : g.endpoint_setup_slack) EXPECT_TRUE(std::isfinite(s));
}

TEST_F(ExtractTest, LevelsMatchArcDirection) {
  const Topology& t = *graph_->topo;
  const auto level = [&](int v) {
    return t.node_level()[static_cast<std::size_t>(v)];
  };
  for (std::size_t e = 0; e < t.net_src().size(); ++e) {
    EXPECT_LT(level(t.net_src()[e]), level(t.net_dst()[e]));
  }
  for (std::size_t e = 0; e < t.cell_src().size(); ++e) {
    EXPECT_LT(level(t.cell_src()[e]), level(t.cell_dst()[e]));
  }
}


TEST_F(ExtractTest, RuntimesRecorded) {
  EXPECT_GT(graph_->route_seconds, 0.0);
  EXPECT_GE(graph_->sta_seconds, 0.0);
  EXPECT_GT(graph_->clock_period, 0.0);
}

/// Over a seeded stream of resizes, patch_instances reports as changed
/// exactly the cell arcs whose freshly written Table-3 row differs bitwise
/// from the row before the resize, and re-points each arc at a table row
/// holding those fresh bytes.
TEST(ExtractPatchTest, ResizeDeltaMatchesRowBytes) {
  const Library lib = build_library();
  DatasetOptions options;
  options.scale = 1.0 / 32;
  DatasetGraph g =
      build_design_graph(suite_entry("picorv32a", options.scale), lib, options);
  ASSERT_NE(g.design, nullptr);
  Design& design = *g.design;
  const TimingGraph graph(design);
  std::vector<InstId> resizable;
  for (InstId i = 0; i < design.num_instances(); ++i) {
    const CellType& cell = lib.cell(design.instance(i).cell_id);
    if (lib.cells_of_function(cell.function).size() > 1) {
      resizable.push_back(i);
    }
  }
  ASSERT_FALSE(resizable.empty());

  constexpr std::size_t kW = kCellEdgeFeatureDim;
  // The Table-3 row of every arc of `inst`, by cell-arc id.
  const auto arc_rows = [&](InstId inst) {
    std::vector<std::pair<int, std::vector<float>>> rows;
    for (const PinId p : design.instance(inst).pins) {
      for (const int a : graph.out_cell_arcs(p)) {
        std::vector<float> row(kW);
        write_cell_edge_features(
            graph.lib_arc(graph.cell_arcs()[static_cast<std::size_t>(a)]),
            row.data());
        rows.emplace_back(a, std::move(row));
      }
    }
    return rows;
  };

  Rng rng(0xC311);
  std::size_t changed_total = 0;
  for (int step = 0; step < 50; ++step) {
    const InstId inst = resizable[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(resizable.size()) - 1))];
    const std::vector<int> cells = lib.cells_of_function(
        lib.cell(design.instance(inst).cell_id).function);
    const auto before = arc_rows(inst);
    design.instance(inst).cell_id = cells[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(cells.size()) - 1))];
    const auto after = arc_rows(inst);

    std::vector<int> expected;
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      if (std::memcmp(before[i].second.data(), after[i].second.data(),
                      kW * sizeof(float)) != 0) {
        expected.push_back(before[i].first);
      }
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());

    const std::vector<InstId> insts{inst};
    const GraphDelta delta = patch_instances(g, graph, insts);
    EXPECT_EQ(delta.cell_edges, expected) << "step " << step;
    changed_total += delta.cell_edges.size();
    const std::span<const float> table = g.lut_table->rows.data();
    for (const auto& [a, row] : after) {
      const auto r = static_cast<std::size_t>(
          g.cell_arc_lut[static_cast<std::size_t>(a)]);
      EXPECT_EQ(std::memcmp(table.data() + r * kW, row.data(),
                            kW * sizeof(float)),
                0)
          << "step " << step << " arc " << a;
    }
  }
  // The stream must exercise both outcomes.
  EXPECT_GT(changed_total, 0u);
}

}  // namespace
}  // namespace tg::data
