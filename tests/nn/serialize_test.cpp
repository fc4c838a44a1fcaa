#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <vector>

#include "nn/ops.hpp"
#include "util/check.hpp"

namespace tg::nn {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "/tg_model.bin";
};

TEST_F(SerializeTest, RoundTripPreservesWeights) {
  Rng rng(1);
  Mlp a(4, 2, 8, 2, &rng, "m");
  save_parameters(a, path_);

  Rng rng2(999);  // different init
  Mlp b(4, 2, 8, 2, &rng2, "m");
  load_parameters(b, path_);

  for (std::size_t i = 0; i < a.parameters().size(); ++i) {
    const auto av = a.parameters()[i].data();
    const auto bv = b.parameters()[i].data();
    ASSERT_EQ(av.size(), bv.size());
    for (std::size_t j = 0; j < av.size(); ++j) EXPECT_EQ(av[j], bv[j]);
  }

  // Same input → same output after loading.
  Tensor x = Tensor::rand_uniform(3, 4, 1.0f, rng);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::size_t i = 0; i < ya.data().size(); ++i) {
    EXPECT_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST_F(SerializeTest, ShapeMismatchRejected) {
  Rng rng(1);
  Mlp a(4, 2, 8, 2, &rng, "m");
  save_parameters(a, path_);
  Mlp wrong(4, 2, 16, 2, &rng, "m");  // different hidden width
  EXPECT_THROW(load_parameters(wrong, path_), CheckError);
}

TEST_F(SerializeTest, ArchitectureMismatchRejected) {
  Rng rng(1);
  Mlp a(4, 2, 8, 2, &rng, "m");
  save_parameters(a, path_);
  Mlp wrong(4, 2, 8, 3, &rng, "m");  // extra layer: missing names
  EXPECT_THROW(load_parameters(wrong, path_), CheckError);
}

TEST_F(SerializeTest, MissingFileRejected) {
  Rng rng(1);
  Mlp a(4, 2, 8, 2, &rng, "m");
  EXPECT_THROW(load_parameters(a, "/nonexistent/abc.bin"), CheckError);
}

TEST_F(SerializeTest, CorruptMagicRejected) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "garbage data here";
  }
  Rng rng(1);
  Mlp a(4, 2, 8, 2, &rng, "m");
  EXPECT_THROW(load_parameters(a, path_), CheckError);
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST_F(SerializeTest, CorruptedV1FileAlwaysRejected) {
  Rng rng(1);
  Mlp a(4, 2, 8, 2, &rng, "m");
  save_parameters(a, path_);
  const std::vector<unsigned char> full = slurp(path_);
  for (int i = 0; i < 8; ++i) {
    const std::size_t n = full.size() * static_cast<std::size_t>(i) / 8;
    spit(path_, {full.begin(), full.begin() + static_cast<std::ptrdiff_t>(n)});
    EXPECT_THROW(load_parameters(a, path_), CheckError) << "truncated to " << n;
  }
  for (std::size_t i = 0; i < full.size(); i += 64) {
    std::vector<unsigned char> bad = full;
    bad[i] ^= 0x5A;
    spit(path_, bad);
    EXPECT_THROW(load_parameters(a, path_), CheckError) << "flip at byte " << i;
  }
}

}  // namespace
}  // namespace tg::nn
