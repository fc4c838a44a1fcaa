/// Corruption fuzzing for the dataset-graph format: every truncation and
/// every byte flip must surface as a typed CheckError — never a crash, never
/// a silently-wrong graph.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "data/dataset.hpp"
#include "data/graph_io.hpp"
#include "liberty/library_builder.hpp"
#include "testing/graph_file.hpp"
#include "util/check.hpp"

namespace tg::data {
namespace {

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

class GraphCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Library lib = build_library();
    DatasetOptions options;
    options.scale = 1.0 / 32;
    options.slim = true;
    graph_ = new DatasetGraph(
        build_design_graph(suite_entry("spm", options.scale), lib, options));
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static const DatasetGraph& graph() { return *graph_; }

  std::string path_ = ::testing::TempDir() + "/tg_graph_fuzz.bin";

 private:
  static const DatasetGraph* graph_;
};

const DatasetGraph* GraphCorruptionTest::graph_ = nullptr;

TEST_F(GraphCorruptionTest, TruncationAtEighthBoundaries) {
  save_graph(graph(), path_);
  const std::vector<unsigned char> full = slurp(path_);
  ASSERT_GT(full.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    const std::size_t n = full.size() * static_cast<std::size_t>(i) / 8;
    spit(path_, {full.begin(), full.begin() + static_cast<std::ptrdiff_t>(n)});
    EXPECT_THROW(load_graph(path_), CheckError) << "truncated to " << n;
  }
}

/// A hand-built graph small enough that flipping one byte per 64-byte
/// stride covers every format region in well under a second. Corruption
/// detection is a property of the envelope (CRC over the whole payload),
/// not of the graph content, so a miniature graph proves the same thing
/// the 1 MB real one would — the real graph gets a sparse flip pass below.
DatasetGraph make_tiny_graph() {
  DatasetGraph g;
  g.name = "tiny";
  Topology::Arrays topo;
  topo.num_nodes = 4;
  topo.num_levels = 2;
  topo.net_src = {0, 1};
  topo.net_dst = {2, 3};
  topo.cell_src = {0, 1};
  topo.cell_dst = {2, 3};
  topo.node_level = {0, 0, 1, 1};
  topo.net_sinks = {2, 3};
  g.topo = std::make_shared<const Topology>(std::move(topo), g.name);
  g.clock_period = 1.25;
  auto tensor = [](std::int64_t rows, std::int64_t cols) {
    std::vector<float> v(static_cast<std::size_t>(rows * cols));
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<float>(i) * 0.5f;
    }
    return nn::Tensor::from_vector(std::move(v), rows, cols);
  };
  g.node_feat = tensor(4, 10);
  g.net_edge_feat = tensor(2, 2);
  g.cell_edge_feat = tensor(2, kCellEdgeFeatureDim);
  g.net_delay = tensor(4, 4);
  g.arrival = tensor(4, 4);
  g.slew = tensor(4, 4);
  g.rat = tensor(4, 4);
  g.cell_delay = tensor(2, 4);
  g.endpoints = {2, 3};
  g.endpoint_setup_slack = {0.5, -0.25};
  g.endpoint_hold_slack = {0.125, 0.75};
  g.stats.num_nodes = 4;
  return g;
}

TEST_F(GraphCorruptionTest, ByteFlipPer64ByteStride) {
  save_graph(make_tiny_graph(), path_);
  const std::vector<unsigned char> full = slurp(path_);
  for (std::size_t i = 0; i < full.size(); i += 64) {
    std::vector<unsigned char> bad = full;
    bad[i] ^= 0x5A;
    spit(path_, bad);
    EXPECT_THROW(load_graph(path_), CheckError) << "flip at byte " << i;
  }
  // Flipping the last byte (inside the CRC trailer itself) must also fail.
  ASSERT_FALSE(full.empty());
  std::vector<unsigned char> bad = full;
  bad[bad.size() - 1] ^= 0x5A;
  spit(path_, bad);
  EXPECT_THROW(load_graph(path_), CheckError);
}

TEST_F(GraphCorruptionTest, SparseByteFlipsOnRealGraph) {
  save_graph(graph(), path_);
  const std::vector<unsigned char> full = slurp(path_);
  for (std::size_t i = 0; i < full.size(); i += 8191) {  // prime stride
    std::vector<unsigned char> bad = full;
    bad[i] ^= 0x5A;
    spit(path_, bad);
    EXPECT_THROW(load_graph(path_), CheckError) << "flip at byte " << i;
  }
}

TEST_F(GraphCorruptionTest, ErrorNamesFileAndLocation) {
  save_graph(graph(), path_);
  std::vector<unsigned char> bytes = slurp(path_);
  bytes.resize(bytes.size() / 2);
  spit(path_, bytes);
  try {
    (void)load_graph(path_);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(path_), std::string::npos)
        << e.what();
  }
}

/// A file whose checksum holds but whose net_dst names a node past the
/// end must fail to load with an error naming the field and the entry —
/// before any index derived from it (the level CSR, the plan) reads out
/// of bounds.
TEST_F(GraphCorruptionTest, OutOfRangeNetDstRejected) {
  const DatasetGraph g = make_tiny_graph();
  save_graph(g, path_);
  EXPECT_NO_THROW((void)load_graph(path_));
  std::vector<unsigned char> bytes = slurp(path_);
  const std::size_t src =
      tg::testing::find_i32_array(bytes, g.topo->net_src());
  const std::size_t dst =
      tg::testing::find_i32_array(bytes, g.topo->net_dst(), src);
  ASSERT_LT(dst, bytes.size());
  tg::testing::put_i32(bytes, dst + 4, g.num_nodes());  // net_dst[1]
  tg::testing::reseal_crc(bytes);
  spit(path_, bytes);
  try {
    (void)load_graph(path_);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("net_dst[1] = 4"), std::string::npos)
        << e.what();
  }
}

/// A CRC-valid file whose level count is far past its node count must fail
/// to load with a CheckError, not size the per-level arrays of the level
/// CSR by that count.
TEST_F(GraphCorruptionTest, OversizedLevelCountRejected) {
  const DatasetGraph g = make_tiny_graph();
  save_graph(g, path_);
  std::vector<unsigned char> bytes = slurp(path_);
  const std::size_t levels = tg::testing::num_nodes_offset(g.name) + 8;
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + levels, sizeof(stored));
  ASSERT_EQ(stored, static_cast<std::uint64_t>(g.num_levels()));
  tg::testing::put_i32(bytes, levels, 0x7FFFFFFF);  // low word; high is 0
  tg::testing::reseal_crc(bytes);
  spit(path_, bytes);
  try {
    (void)load_graph(path_);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("num_levels = 2147483647"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace tg::data
