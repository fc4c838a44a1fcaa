/// Regression test: trainer caches (PropPlan, GCNII adjacency) must key on
/// the graph's topology, not its design name — the same benchmark can exist
/// at several scales in one process (this segfaulted once) — nor its
/// address, which a later graph can reuse.

#include <gtest/gtest.h>

#include <optional>

#include "core/test_fixture.hpp"
#include "core/trainer.hpp"

namespace tg::core {
namespace {

TEST(PlanCache, SameNameDifferentGraphsGetDistinctPlans) {
  const Library lib = build_library();
  data::DatasetOptions small;
  small.scale = 1.0 / 32;
  data::DatasetOptions larger;
  larger.scale = 1.0 / 16;
  const data::DatasetGraph a =
      data::build_design_graph(suite_entry("picorv32a", small.scale), lib, small);
  const data::DatasetGraph b =
      data::build_design_graph(suite_entry("picorv32a", larger.scale), lib, larger);
  ASSERT_EQ(a.name, b.name);
  ASSERT_NE(a.num_nodes(), b.num_nodes());

  TimingGnnConfig cfg;
  cfg.net.hidden = cfg.net.mlp_hidden = 8;
  cfg.net.mlp_layers = 1;
  cfg.prop.hidden = cfg.prop.mlp_hidden = cfg.prop.lut.mlp_hidden = 8;
  cfg.prop.mlp_layers = cfg.prop.lut.mlp_layers = 1;
  TrainOptions opt;
  opt.epochs = 1;
  opt.verbose = false;
  TimingGnnTrainer trainer(cfg, opt);

  // Both evaluations must succeed with plans matching their own graph.
  const PropPlan& pa = trainer.plan_for(a);
  const PropPlan& pb = trainer.plan_for(b);
  EXPECT_NE(&pa, &pb);
  const auto plan_nodes = [](const PropPlan& p) {
    std::size_t n = 0;
    for (const nn::IndexVec& rows : p.level_rows) n += rows->size();
    return static_cast<int>(n);
  };
  EXPECT_EQ(plan_nodes(pa), a.num_nodes());
  EXPECT_EQ(plan_nodes(pb), b.num_nodes());
  EXPECT_NO_THROW(trainer.evaluate(a));
  EXPECT_NO_THROW(trainer.evaluate(b));

  // A loop-local graph re-emplaced in one slot lives at one address: each
  // graph it holds must still get its own plan and adjacency.
  GcniiConfig gcnii_cfg;
  gcnii_cfg.num_layers = 2;
  gcnii_cfg.hidden = 8;
  GcniiTrainer gcnii(gcnii_cfg, opt);
  std::optional<data::DatasetGraph> slot;
  for (const data::DatasetGraph* g : {&a, &b}) {
    slot.emplace(*g);
    ASSERT_EQ(plan_nodes(trainer.plan_for(*slot)), g->num_nodes());
    EXPECT_NO_THROW(trainer.evaluate(*slot));
    EXPECT_NO_THROW(gcnii.evaluate(*slot));
  }
}

}  // namespace
}  // namespace tg::core
