/// \file graph_pack_test.cpp
/// Disjoint-union graph packing (data/graph_pack.hpp): offset-table and
/// packed-LevelCsr invariants via validate_graph_pack, ragged K ∈ {1,2,5}
/// mixes across distinct designs, empty/singleton edge cases, and the
/// tentpole contract — a packed forward over K ≥ 2 designs matches the K
/// sequential per-design forwards within 1e-6.

#include "data/graph_pack.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/timing_gnn.hpp"
#include "data/dataset.hpp"
#include "liberty/library_builder.hpp"
#include "util/check.hpp"

namespace tg::data {
namespace {

constexpr double kScale = 1.0 / 32;

/// Three small distinct designs, built once for the whole file.
class GraphPackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new Library(build_library());
    DatasetOptions options;
    options.scale = kScale;
    a_ = new DatasetGraph(
        build_design_graph(suite_entry("spm", kScale), *lib_, options));
    b_ = new DatasetGraph(
        build_design_graph(suite_entry("zipdiv", kScale), *lib_, options));
    c_ = new DatasetGraph(
        build_design_graph(suite_entry("xtea", kScale), *lib_, options));
  }
  static void TearDownTestSuite() {
    delete a_;
    delete b_;
    delete c_;
    delete lib_;
    a_ = b_ = c_ = nullptr;
    lib_ = nullptr;
  }

  static Library* lib_;
  static DatasetGraph* a_;
  static DatasetGraph* b_;
  static DatasetGraph* c_;
};

Library* GraphPackTest::lib_ = nullptr;
DatasetGraph* GraphPackTest::a_ = nullptr;
DatasetGraph* GraphPackTest::b_ = nullptr;
DatasetGraph* GraphPackTest::c_ = nullptr;

/// Each packed level block is the parts' level-l blocks in part order,
/// ids offset by the part's base — the order that makes the packed
/// forward reduce every row exactly as the part's own forward does.
void expect_csr_is_part_blocks(const GraphPack& pack,
                               const std::vector<const DatasetGraph*>& parts) {
  const LevelCsr& packed = pack.g.topo->csr();
  // The expected {offsets, ids} of one kind of CSR.
  const auto blocks = [&](std::vector<int> LevelCsr::*off,
                          std::vector<int> LevelCsr::*perm,
                          const std::vector<int>& base) {
    std::vector<int> offsets{0};
    std::vector<int> ids;
    for (int l = 0; l < pack.g.num_levels(); ++l) {
      for (std::size_t k = 0; k < parts.size(); ++k) {
        if (l >= parts[k]->num_levels()) continue;
        const LevelCsr& c = parts[k]->topo->csr();
        for (int s = (c.*off)[static_cast<std::size_t>(l)];
             s < (c.*off)[static_cast<std::size_t>(l) + 1]; ++s) {
          ids.push_back((c.*perm)[static_cast<std::size_t>(s)] + base[k]);
        }
      }
      offsets.push_back(static_cast<int>(ids.size()));
    }
    return std::pair{offsets, ids};
  };
  const auto nodes =
      blocks(&LevelCsr::node_off, &LevelCsr::node_perm, pack.node_base);
  EXPECT_EQ(packed.node_off, nodes.first);
  EXPECT_EQ(packed.node_perm, nodes.second);
  const auto nets =
      blocks(&LevelCsr::net_off, &LevelCsr::net_perm, pack.net_base);
  EXPECT_EQ(packed.net_off, nets.first);
  EXPECT_EQ(packed.net_perm, nets.second);
  const auto cells =
      blocks(&LevelCsr::cell_off, &LevelCsr::cell_perm, pack.cell_base);
  EXPECT_EQ(packed.cell_off, cells.first);
  EXPECT_EQ(packed.cell_perm, cells.second);
}

TEST_F(GraphPackTest, EmptyPackIsWellFormed) {
  const GraphPack pack = pack_graphs({});
  EXPECT_EQ(pack.num_graphs, 0);
  EXPECT_EQ(pack.g.num_nodes(), 0);
  EXPECT_EQ(pack.g.num_levels(), 0);
  EXPECT_EQ(pack.node_base, std::vector<int>{0});
  EXPECT_TRUE(pack.graph_of_node.empty());
  EXPECT_GT(pack.g.clock_period, 0.0);
  DiagSink sink;
  validate_graph_pack(pack, sink, ValidateLevel::kFull);
  EXPECT_TRUE(sink.ok()) << sink.report_text();
}

TEST_F(GraphPackTest, SingletonPackIsIdentity) {
  const DatasetGraph& g = *a_;
  const GraphPack pack = pack_graphs({&g});
  EXPECT_EQ(pack.num_graphs, 1);
  EXPECT_EQ(pack.g.num_nodes(), g.num_nodes());
  EXPECT_EQ(pack.g.num_levels(), g.num_levels());
  EXPECT_EQ(pack.g.topo->net_src(), g.topo->net_src());
  EXPECT_EQ(pack.g.topo->cell_dst(), g.topo->cell_dst());
  EXPECT_EQ(pack.g.topo->node_level(), g.topo->node_level());
  EXPECT_EQ(pack.g.endpoints, g.endpoints);
  EXPECT_EQ(pack.g.topo->net_sinks(), g.topo->net_sinks());
  EXPECT_EQ(pack.g.clock_period, g.clock_period);
  ASSERT_EQ(pack.g.node_feat.numel(), g.node_feat.numel());
  const std::span<const float> packed = pack.g.node_feat.data();
  const std::span<const float> orig = g.node_feat.data();
  for (std::size_t i = 0; i < orig.size(); ++i) {
    ASSERT_EQ(packed[i], orig[i]) << "node_feat flat index " << i;
  }
  DiagSink sink;
  validate_graph_pack(pack, sink, ValidateLevel::kFull);
  EXPECT_TRUE(sink.ok()) << sink.report_text();
  expect_csr_is_part_blocks(pack, {&g});
}

TEST_F(GraphPackTest, TwoDesignPackOffsetsAndLevelAlignment) {
  const GraphPack pack = pack_graphs({a_, b_});
  ASSERT_EQ(pack.num_graphs, 2);
  const std::vector<int> expect_nodes{0, a_->num_nodes(),
                                      a_->num_nodes() + b_->num_nodes()};
  EXPECT_EQ(pack.node_base, expect_nodes);
  EXPECT_EQ(pack.g.num_nodes(), a_->num_nodes() + b_->num_nodes());
  EXPECT_EQ(pack.g.num_levels(), std::max(a_->num_levels(), b_->num_levels()));
  ASSERT_EQ(static_cast<int>(pack.graph_of_node.size()), pack.g.num_nodes());

  // Every node keeps its part's level; graph_of_node matches node_base.
  for (int v = 0; v < pack.g.num_nodes(); ++v) {
    const int part = pack.graph_of_node[static_cast<std::size_t>(v)];
    const DatasetGraph& src = part == 0 ? *a_ : *b_;
    const int local = v - pack.node_base[static_cast<std::size_t>(part)];
    ASSERT_GE(local, 0);
    ASSERT_LT(local, src.num_nodes());
    ASSERT_EQ(pack.g.topo->node_level()[static_cast<std::size_t>(v)],
              src.topo->node_level()[static_cast<std::size_t>(local)]);
  }

  // Part b's edges are part a's offsets shifted by the node base.
  ASSERT_EQ(pack.net_base[1], static_cast<int>(a_->topo->net_src().size()));
  const int nb = pack.node_base[1];
  const int eb = pack.net_base[1];
  for (std::size_t e = 0; e < b_->topo->net_src().size(); ++e) {
    ASSERT_EQ(pack.g.topo->net_src()[static_cast<std::size_t>(eb) + e],
              b_->topo->net_src()[e] + nb);
    ASSERT_EQ(pack.g.topo->net_dst()[static_cast<std::size_t>(eb) + e],
              b_->topo->net_dst()[e] + nb);
  }

  DiagSink sink;
  validate_graph_pack(pack, sink, ValidateLevel::kFull);
  EXPECT_TRUE(sink.ok()) << sink.report_text();
  expect_csr_is_part_blocks(pack, {a_, b_});
}

TEST_F(GraphPackTest, RaggedFivePartMixWithRepeatsValidates) {
  // K = 5 with repeated parts and wildly different depths — repetition is
  // legal (each occurrence becomes its own disjoint copy).
  const std::vector<const DatasetGraph*> parts{a_, b_, a_, c_, b_};
  const GraphPack pack = pack_graphs(parts);
  ASSERT_EQ(pack.num_graphs, 5);
  int total = 0;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    EXPECT_EQ(pack.node_base[k], total);
    total += parts[k]->num_nodes();
  }
  EXPECT_EQ(pack.node_base.back(), total);
  EXPECT_EQ(pack.g.num_nodes(), total);
  EXPECT_EQ(pack.endpoint_base.back(),
            static_cast<int>(pack.g.endpoints.size()));

  DiagSink sink;
  validate_graph_pack(pack, sink, ValidateLevel::kFull);
  EXPECT_TRUE(sink.ok()) << sink.report_text();
  expect_csr_is_part_blocks(pack, parts);
}

/// A pack of graphs from one library holds part 0's LUT table itself, no
/// copy of its floats, and the parts' row indices concatenated unchanged:
/// the table is the only per-edge Table-3 data it carries.
TEST_F(GraphPackTest, PackSharesThePartsLutTable) {
  DatasetGraph b = *b_;
  b.lut_table = a_->lut_table;  // parts sharing one table pointer
  const std::vector<const DatasetGraph*> parts{a_, &b, c_};
  const GraphPack pack = pack_graphs(parts);
  EXPECT_EQ(pack.g.lut_table.get(), a_->lut_table.get());
  EXPECT_EQ(pack.g.lut_table->rows.data().data(),
            a_->lut_table->rows.data().data());
  std::vector<int> lut;
  for (const DatasetGraph* p : parts) {
    lut.insert(lut.end(), p->cell_arc_lut.begin(), p->cell_arc_lut.end());
  }
  EXPECT_EQ(pack.g.cell_arc_lut, lut);
  EXPECT_EQ(static_cast<int>(pack.g.cell_arc_lut.size()),
            pack.cell_base.back());
  DiagSink sink;
  validate_graph_pack(pack, sink, ValidateLevel::kFull);
  EXPECT_TRUE(sink.ok()) << sink.report_text();
}

/// Parts whose tables differ in content cannot share one table: packing
/// them throws and names the first such part.
TEST_F(GraphPackTest, PackRejectsPartsWithDifferentLutTables) {
  DatasetGraph b = *b_;
  LutTable table = *b.lut_table;
  table.rows = nn::detach(table.rows);  // a private copy to alter
  table.rows.data()[7] += 1.0f;
  b.lut_table = std::make_shared<const LutTable>(std::move(table));
  b.name = "zipdiv_altered";
  try {
    (void)pack_graphs({a_, c_, &b});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("part 2 (zipdiv_altered)"), std::string::npos)
        << what;
  }
}

TEST_F(GraphPackTest, PackedForwardMatchesSequentialWithin1e6) {
  const std::vector<const DatasetGraph*> parts{a_, b_, c_};
  const GraphPack pack = pack_graphs(parts);
  const core::PropPlan packed_plan = core::build_prop_plan(pack.g);

  core::TimingGnnConfig config;
  config.net.hidden = 8;
  config.net.mlp_hidden = 8;
  config.prop.hidden = 8;
  config.prop.mlp_hidden = 8;
  const core::TimingGnn model(config);

  const core::TimingGnn::Prediction packed = model.forward(pack.g, packed_plan);

  for (std::size_t k = 0; k < parts.size(); ++k) {
    const DatasetGraph& g = *parts[k];
    const core::PropPlan plan = core::build_prop_plan(g);
    const core::TimingGnn::Prediction solo = model.forward(g, plan);

    // Per-node atslew rows: the packed rows of part k, shifted back.
    const int base = pack.node_base[k];
    for (int v = 0; v < g.num_nodes(); ++v) {
      for (int c = 0; c < 8; ++c) {
        ASSERT_NEAR(packed.atslew.at(base + v, c), solo.atslew.at(v, c), 1e-6)
            << "part " << k << " node " << v << " col " << c;
      }
    }

    // Endpoint slacks of part k's endpoint slice vs the sequential
    // reference.
    const int lo = pack.endpoint_base[k];
    ASSERT_EQ(pack.endpoint_base[k + 1] - lo,
              static_cast<int>(g.endpoints.size()));
    for (std::size_t i = 0; i < g.endpoints.size(); ++i) {
      const core::EndpointSlack got = core::predicted_endpoint_slack(
          pack.g, packed.atslew,
          pack.g.endpoints[static_cast<std::size_t>(lo) + i]);
      const core::EndpointSlack want =
          core::predicted_endpoint_slack(g, solo.atslew, g.endpoints[i]);
      ASSERT_NEAR(got.setup, want.setup, 1e-6) << "part " << k << " ep " << i;
      ASSERT_NEAR(got.hold, want.hold, 1e-6) << "part " << k << " ep " << i;
    }
  }
}

}  // namespace
}  // namespace tg::data
