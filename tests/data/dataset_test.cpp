#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include "liberty/library_builder.hpp"

namespace tg::data {
namespace {

TEST(Dataset, SubsetBuildRespectsSplit) {
  const Library lib = build_library();
  DatasetOptions options;
  options.scale = 1.0 / 32;
  const SuiteDataset ds =
      build_suite_dataset(lib, options, {"spm", "usb", "zipdiv"});
  ASSERT_EQ(ds.graphs.size(), 3u);
  // zipdiv & usb are train designs; spm is a test design.
  EXPECT_EQ(ds.train_ids.size(), 2u);
  EXPECT_EQ(ds.test_ids.size(), 1u);
  EXPECT_EQ(ds.graphs[static_cast<std::size_t>(ds.test_ids[0])].name, "spm");
}

TEST(Dataset, SlimModeDropsHeavyHandles) {
  const Library lib = build_library();
  DatasetOptions options;
  options.scale = 1.0 / 32;
  options.slim = true;
  const DatasetGraph g =
      build_design_graph(suite_entry("spm", options.scale), lib, options);
  EXPECT_EQ(g.design, nullptr);
  EXPECT_EQ(g.truth_routing, nullptr);
  EXPECT_GT(g.num_nodes(), 0);
}

TEST(Dataset, ClockPeriodCalibrated) {
  const Library lib = build_library();
  DatasetOptions options;
  options.scale = 1.0 / 32;
  const SuiteEntry entry = suite_entry("usb", options.scale);
  const DatasetGraph g = build_design_graph(entry, lib, options);
  // Calibration factor > 1 ⇒ all setup slacks positive-ish but not huge.
  double min_slack = 1e9, max_slack = -1e9;
  for (double s : g.endpoint_setup_slack) {
    min_slack = std::min(min_slack, s);
    max_slack = std::max(max_slack, s);
  }
  EXPECT_GT(min_slack, 0.0);
  EXPECT_LT(min_slack, 0.15 * g.clock_period);  // something is near-critical
}

TEST(Dataset, DeterministicRebuild) {
  const Library lib = build_library();
  DatasetOptions options;
  options.scale = 1.0 / 32;
  const DatasetGraph a =
      build_design_graph(suite_entry("spm", options.scale), lib, options);
  const DatasetGraph b =
      build_design_graph(suite_entry("spm", options.scale), lib, options);
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.arrival.numel(), b.arrival.numel());
  for (std::int64_t i = 0; i < a.arrival.numel(); i += 97) {
    EXPECT_EQ(a.arrival.data()[static_cast<std::size_t>(i)],
              b.arrival.data()[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace tg::data
