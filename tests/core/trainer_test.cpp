#include "core/trainer.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/test_fixture.hpp"
#include "util/check.hpp"

namespace tg::core {
namespace {

TimingGnnConfig tiny_config() {
  TimingGnnConfig cfg;
  cfg.net.hidden = 8;
  cfg.net.mlp_hidden = 8;
  cfg.net.mlp_layers = 1;
  cfg.net.num_layers = 2;
  cfg.prop.hidden = 8;
  cfg.prop.mlp_hidden = 8;
  cfg.prop.mlp_layers = 1;
  cfg.prop.lut.mlp_hidden = 8;
  cfg.prop.lut.mlp_layers = 1;
  return cfg;
}

TrainOptions quick_options(int epochs) {
  TrainOptions opt;
  opt.epochs = epochs;
  opt.lr = 3e-3f;
  opt.verbose = false;
  return opt;
}

TEST(TimingGnnTrainer, LossDecreasesOverTraining) {
  TimingGnnTrainer trainer(tiny_config(), quick_options(1));
  const auto& ds = testing::tiny_dataset();
  const double first = trainer.fit(ds);
  TimingGnnTrainer longer(tiny_config(), quick_options(25));
  const double last = longer.fit(ds);
  EXPECT_LT(last, first);
}

TEST(TimingGnnTrainer, EvaluateProducesSaneMetrics) {
  TimingGnnTrainer trainer(tiny_config(), quick_options(80));
  const auto& ds = testing::tiny_dataset();
  trainer.fit(ds);
  const DesignEval eval = trainer.evaluate(testing::train_graph());
  EXPECT_EQ(eval.name, testing::train_graph().name);
  EXPECT_LE(eval.r2_arrival_endpoints, 1.0);
  EXPECT_GT(eval.r2_arrival_endpoints, -10.0);
  EXPECT_GT(eval.infer_seconds, 0.0);
  // 80 epochs on one tiny design should already beat the mean predictor.
  EXPECT_GT(eval.r2_arrival_endpoints, 0.0);
}

TEST(TimingGnnTrainer, SlackScatterAligned) {
  TimingGnnTrainer trainer(tiny_config(), quick_options(2));
  const auto& ds = testing::tiny_dataset();
  trainer.fit(ds);
  const auto scatter = trainer.slack_scatter(testing::test_graph());
  const std::size_t n = testing::test_graph().endpoints.size();
  EXPECT_EQ(scatter.true_setup.size(), n);
  EXPECT_EQ(scatter.pred_setup.size(), n);
  EXPECT_EQ(scatter.true_hold.size(), n);
  EXPECT_EQ(scatter.pred_hold.size(), n);
}

TEST(NetEmbedTrainer, FitsNetDelayOnTinyData) {
  NetEmbedConfig cfg;
  cfg.hidden = 8;
  cfg.mlp_hidden = 8;
  cfg.mlp_layers = 1;
  cfg.num_layers = 2;
  NetEmbedTrainer trainer(cfg, quick_options(80));
  const auto& ds = testing::tiny_dataset();
  trainer.fit(ds);
  const double r2_train = trainer.evaluate_r2(testing::train_graph());
  EXPECT_GT(r2_train, 0.3);
}

TEST(GcniiTrainer, RunsAndEvaluates) {
  GcniiConfig cfg;
  cfg.num_layers = 4;
  cfg.hidden = 8;
  GcniiTrainer trainer(cfg, quick_options(10));
  const auto& ds = testing::tiny_dataset();
  const double loss = trainer.fit(ds);
  EXPECT_TRUE(std::isfinite(loss));
  const DesignEval eval = trainer.evaluate(testing::test_graph());
  EXPECT_LE(eval.r2_arrival_endpoints, 1.0);
}

/// A dataset whose designs all landed in the test split (e.g. a run on
/// spm alone) must stop every trainer with an error naming the designs,
/// not train on nothing and report a NaN loss.
TEST(Trainers, EmptyTrainSplitFailsLoudly) {
  data::SuiteDataset test_only;
  test_only.graphs.push_back(testing::test_graph());
  test_only.test_ids.push_back(0);
  const std::string design = testing::test_graph().name + "=test";
  auto expect_named_failure = [&](const char* trainer, auto&& fit) {
    SCOPED_TRACE(trainer);
    try {
      fit();
      ADD_FAILURE() << "fit() ran on an empty train split";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(trainer), std::string::npos) << what;
      EXPECT_NE(what.find("empty train split"), std::string::npos) << what;
      EXPECT_NE(what.find(design), std::string::npos) << what;
    }
  };
  TimingGnnTrainer gnn(tiny_config(), quick_options(2));
  expect_named_failure("TimingGnnTrainer::fit", [&] { gnn.fit(test_only); });
  NetEmbedConfig net_cfg;
  net_cfg.hidden = net_cfg.mlp_hidden = 8;
  NetEmbedTrainer net(net_cfg, quick_options(2));
  expect_named_failure("NetEmbedTrainer::fit", [&] { net.fit(test_only); });
  GcniiConfig gcnii_cfg;
  gcnii_cfg.hidden = 8;
  GcniiTrainer gcnii(gcnii_cfg, quick_options(2));
  expect_named_failure("GcniiTrainer::fit", [&] { gcnii.fit(test_only); });
}

TEST(MeanOf, AveragesField) {
  std::vector<DesignEval> evals(2);
  evals[0].r2_arrival_endpoints = 0.5;
  evals[1].r2_arrival_endpoints = 0.9;
  EXPECT_DOUBLE_EQ(mean_of(evals, &DesignEval::r2_arrival_endpoints), 0.7);
  EXPECT_DOUBLE_EQ(mean_of({}, &DesignEval::r2_arrival_endpoints), 0.0);
}

}  // namespace
}  // namespace tg::core
