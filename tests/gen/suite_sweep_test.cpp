/// Property sweep over ALL 21 Table-1 benchmarks at small scale: every
/// design must generate, validate, place legally, levelize acyclically and
/// produce sane stats. This is the broad structural safety net behind the
/// bench harnesses.

#include <gtest/gtest.h>

#include "gen/suite.hpp"
#include "liberty/library_builder.hpp"
#include "place/placer.hpp"
#include "sta/timing_graph.hpp"

namespace tg {
namespace {

class SuiteSweep : public ::testing::TestWithParam<std::string> {
 protected:
  static const Library& lib() {
    static const Library* lib_ptr = new Library(build_library());
    return *lib_ptr;
  }
};

TEST_P(SuiteSweep, GeneratesValidatesAndLevelizes) {
  const SuiteEntry entry = suite_entry(GetParam(), 1.0 / 32);
  Design design = generate_design(entry.spec, lib());
  ASSERT_NO_THROW(design.validate());

  const DesignStats stats = design.stats();
  EXPECT_GT(stats.num_nodes, 300);
  EXPECT_GT(stats.num_endpoints, 10);
  EXPECT_GT(stats.num_ffs, 0);
  // Node budget respected within generator tolerance.
  EXPECT_LT(stats.num_nodes, 2 * entry.spec.target_nodes);

  place_design(design);
  for (const Instance& inst : design.instances()) {
    EXPECT_TRUE(design.die().contains(inst.pos));
  }

  const TimingGraph graph(design);
  std::size_t levelized = 0;
  for (int l = 0; l < graph.num_levels(); ++l) {
    levelized += graph.level_pins(l).size();
  }
  EXPECT_EQ(static_cast<int>(levelized), design.num_pins());
  EXPECT_GT(graph.num_levels(), entry.spec.depth / 2);

  // Structural identities connecting stats and graph arrays.
  EXPECT_EQ(static_cast<long long>(graph.net_arcs().size()),
            stats.num_net_edges);
  EXPECT_EQ(static_cast<long long>(graph.cell_arcs().size()),
            stats.num_cell_edges);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteSweep,
    ::testing::Values("blabla", "usb_cdc_core", "BM64", "salsa20", "aes128",
                      "wbqspiflash", "cic_decimator", "aes256", "des",
                      "aes_cipher", "picorv32a", "zipdiv", "genericfir", "usb",
                      "jpeg_encoder", "usbf_device", "aes192", "xtea", "spm",
                      "y_huff", "synth_ram"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace tg
