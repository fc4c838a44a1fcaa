#include "sta/timing_graph.hpp"

#include <gtest/gtest.h>

#include "gen/suite.hpp"
#include "liberty/library_builder.hpp"
#include "place/placer.hpp"
#include "testing/builders.hpp"

namespace tg {
namespace {

class TimingGraphTest : public ::testing::Test {
 protected:
  Library lib_ = build_library();
};

TEST_F(TimingGraphTest, ArcCountsMatchStats) {
  Design d("t", &lib_);
  testing::build_seq_chain(d, lib_);
  const TimingGraph g(d);
  const DesignStats s = d.stats();
  EXPECT_EQ(static_cast<long long>(g.net_arcs().size()), s.num_net_edges);
  EXPECT_EQ(static_cast<long long>(g.cell_arcs().size()), s.num_cell_edges);
}

TEST_F(TimingGraphTest, ClockNetExcluded) {
  Design d("t", &lib_);
  const auto s = testing::build_seq_chain(d, lib_);
  const TimingGraph g(d);
  for (const NetArc& arc : g.net_arcs()) {
    EXPECT_NE(arc.net, s.clock_net);
  }
  // CK pin has no incoming arcs: it is a root.
  EXPECT_EQ(g.in_net_arc(s.ff_ck), -1);
  EXPECT_TRUE(g.in_cell_arcs(s.ff_ck).empty());
}

TEST_F(TimingGraphTest, LevelsRespectTopology) {
  Design d("t", &lib_);
  const auto c = testing::build_comb_chain(d, lib_);
  const TimingGraph g(d);
  // in0 (L0) -> nand/A (L1) -> nand/Y (L2) -> inv/A (L3) -> inv/Y (L4) -> out (L5)
  EXPECT_EQ(g.level(c.in0), 0);
  const Instance& nand = d.instance(c.nand_inst);
  const Instance& inv = d.instance(c.inv_inst);
  EXPECT_EQ(g.level(nand.pins[0]), 1);
  EXPECT_EQ(g.level(nand.pins[2]), 2);
  EXPECT_EQ(g.level(inv.pins[0]), 3);
  EXPECT_EQ(g.level(inv.pins[1]), 4);
  EXPECT_EQ(g.level(c.out), 5);
  EXPECT_EQ(g.num_levels(), 6);
}

TEST_F(TimingGraphTest, EveryArcAdvancesLevel) {
  Design d = generate_design(suite_entry("spm", 1.0 / 32).spec, lib_);
  place_design(d);
  const TimingGraph g(d);
  for (const NetArc& a : g.net_arcs()) {
    EXPECT_LT(g.level(a.from), g.level(a.to));
  }
  for (const CellArc& a : g.cell_arcs()) {
    EXPECT_LT(g.level(a.from), g.level(a.to));
  }
}

TEST_F(TimingGraphTest, LevelPinsCoverEveryPinOnce) {
  Design d = generate_design(suite_entry("usb", 1.0 / 32).spec, lib_);
  const TimingGraph g(d);
  // The levels partition the nodes, each pin under its own level.
  std::vector<int> seen(static_cast<std::size_t>(d.num_pins()), 0);
  for (int l = 0; l < g.num_levels(); ++l) {
    for (PinId p : g.level_pins(l)) {
      ASSERT_GE(p, 0);
      ASSERT_LT(p, d.num_pins());
      EXPECT_EQ(g.level(p), l);
      ++seen[static_cast<std::size_t>(p)];
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST_F(TimingGraphTest, InOutAdjacencyConsistent) {
  Design d("t", &lib_);
  const auto s = testing::build_seq_chain(d, lib_);
  const TimingGraph g(d);
  // FF Q drives q_net with 1 sink; its out_net_arcs must have size 1.
  EXPECT_EQ(g.out_net_arcs(s.ff_q).size(), 1u);
  // The nand output pin has exactly 2 incoming cell arcs (2-input NAND).
  const Instance& nand = d.instance(s.comb.nand_inst);
  EXPECT_EQ(g.in_cell_arcs(nand.pins[2]).size(), 2u);
  // The inv input pin has 1 outgoing cell arc.
  const Instance& inv = d.instance(s.comb.inv_inst);
  EXPECT_EQ(g.out_cell_arcs(inv.pins[0]).size(), 1u);
}

TEST_F(TimingGraphTest, LibArcLookup) {
  Design d("t", &lib_);
  testing::build_comb_chain(d, lib_);
  const TimingGraph g(d);
  for (const CellArc& a : g.cell_arcs()) {
    const TimingArc& lib_arc = g.lib_arc(a);
    EXPECT_GE(lib_arc.from_pin, 0);
    EXPECT_GE(lib_arc.to_pin, 0);
  }
}

}  // namespace
}  // namespace tg
