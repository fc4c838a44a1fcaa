#include "data/graph_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "data/dataset.hpp"
#include "liberty/library_builder.hpp"
#include "util/check.hpp"

namespace tg::data {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "/tg_graph.bin";
};

TEST_F(GraphIoTest, RoundTripPreservesEverything) {
  const Library lib = build_library();
  DatasetOptions options;
  options.scale = 1.0 / 32;
  options.slim = true;
  const DatasetGraph a =
      build_design_graph(suite_entry("usb", options.scale), lib, options);
  save_graph(a, path_);
  const DatasetGraph b = load_graph(path_);

  EXPECT_EQ(b.name, a.name);
  EXPECT_EQ(b.is_test, a.is_test);
  EXPECT_EQ(b.num_nodes(), a.num_nodes());
  EXPECT_EQ(b.num_levels(), a.num_levels());
  EXPECT_DOUBLE_EQ(b.clock_period, a.clock_period);
  EXPECT_EQ(b.topo->net_src(), a.topo->net_src());
  EXPECT_EQ(b.topo->cell_dst(), a.topo->cell_dst());
  EXPECT_EQ(b.topo->node_level(), a.topo->node_level());
  EXPECT_EQ(b.endpoints, a.endpoints);
  EXPECT_EQ(b.topo->net_sinks(), a.topo->net_sinks());
  EXPECT_EQ(b.endpoint_setup_slack, a.endpoint_setup_slack);
  EXPECT_EQ(b.stats.num_cell_edges, a.stats.num_cell_edges);

  auto tensors_equal = [](const nn::Tensor& x, const nn::Tensor& y) {
    ASSERT_EQ(x.rows(), y.rows());
    ASSERT_EQ(x.cols(), y.cols());
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      ASSERT_EQ(x.data()[static_cast<std::size_t>(i)],
                y.data()[static_cast<std::size_t>(i)]);
    }
  };
  tensors_equal(a.node_feat, b.node_feat);
  EXPECT_EQ(b.cell_arc_lut, a.cell_arc_lut);
  tensors_equal(a.lut_table->rows, b.lut_table->rows);
  EXPECT_EQ(b.lut_table->cell_base, a.lut_table->cell_base);
  EXPECT_EQ(b.lut_table->arc_row, a.lut_table->arc_row);
  tensors_equal(a.arrival, b.arrival);
  tensors_equal(a.net_delay, b.net_delay);
  tensors_equal(a.rat, b.rat);
  tensors_equal(a.cell_delay, b.cell_delay);
}

TEST_F(GraphIoTest, LoadedGraphIsTrainable) {
  // A reloaded graph must drive the model pipeline identically.
  const Library lib = build_library();
  DatasetOptions options;
  options.scale = 1.0 / 32;
  options.slim = true;
  const DatasetGraph orig =
      build_design_graph(suite_entry("zipdiv", options.scale), lib, options);
  save_graph(orig, path_);
  const DatasetGraph loaded = load_graph(path_);
  EXPECT_EQ(loaded.design, nullptr);  // slim by definition
  // Spot check model-facing invariants.
  const Topology& t = *loaded.topo;
  for (std::size_t e = 0; e < t.net_src().size(); ++e) {
    EXPECT_LT(t.node_level()[static_cast<std::size_t>(t.net_src()[e])],
              t.node_level()[static_cast<std::size_t>(t.net_dst()[e])]);
  }
}

TEST_F(GraphIoTest, RoundTripRebuildsTheSameTopology) {
  const Library lib = build_library();
  DatasetOptions options;
  options.scale = 1.0 / 32;
  options.slim = true;
  const DatasetGraph a =
      build_design_graph(suite_entry("usb", options.scale), lib, options);
  save_graph(a, path_);
  const DatasetGraph b = load_graph(path_);
  // The file holds only the source arrays; the loader's Topology rebuilds
  // every derived index, equal to the original's.
  const LevelCsr& ca = a.topo->csr();
  const LevelCsr& cb = b.topo->csr();
  EXPECT_EQ(cb.node_off, ca.node_off);
  EXPECT_EQ(cb.node_perm, ca.node_perm);
  EXPECT_EQ(cb.node_row, ca.node_row);
  EXPECT_EQ(cb.net_off, ca.net_off);
  EXPECT_EQ(cb.net_perm, ca.net_perm);
  EXPECT_EQ(cb.cell_off, ca.cell_off);
  EXPECT_EQ(cb.cell_perm, ca.cell_perm);
  EXPECT_EQ(b.topo->fanout().off, a.topo->fanout().off);
  EXPECT_EQ(b.topo->fanout().ids, a.topo->fanout().ids);
  const NetLists& na = a.topo->nets();
  const NetLists& nb = b.topo->nets();
  EXPECT_EQ(nb.node_off, na.node_off);
  EXPECT_EQ(nb.nodes, na.nodes);
  EXPECT_EQ(nb.edge_off, na.edge_off);
  EXPECT_EQ(nb.edges, na.edges);
  EXPECT_EQ(nb.net_of, na.net_of);
  EXPECT_EQ(nb.row, na.row);
}

TEST_F(GraphIoTest, CorruptFileRejected) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "not a dataset graph";
  }
  EXPECT_THROW(load_graph(path_), CheckError);
}

TEST_F(GraphIoTest, MissingFileRejected) {
  EXPECT_THROW(load_graph("/nonexistent/x.bin"), CheckError);
}

}  // namespace
}  // namespace tg::data
