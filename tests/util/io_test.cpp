#include "util/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "util/check.hpp"
#include "util/fault.hpp"

namespace tg::io {
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

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::clear_io_fault();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  /// Writes a small mixed-type payload and commits it.
  void write_sample() {
    BinaryWriter out(path_);
    out.write_u32(0xC0FFEEu);
    out.write_u8(7);
    out.write_u64(1ULL << 40);
    out.write_f32(1.5f);
    out.write_f64(-2.25);
    out.write_string("hello");
    out.write_f32_span(std::vector<float>{1.0f, 2.0f, 3.0f});
    out.write_i32_vec({4, -5, 6});
    out.write_f64_vec({7.5, 8.5});
    out.commit();
  }

  /// Reads the sample payload back, asserting every field.
  static void read_sample(const std::string& path) {
    BinaryReader in(path);
    in.verify_crc();
    EXPECT_EQ(in.read_u32("a"), 0xC0FFEEu);
    EXPECT_EQ(in.read_u8("b"), 7);
    EXPECT_EQ(in.read_u64("c"), 1ULL << 40);
    EXPECT_EQ(in.read_f32("d"), 1.5f);
    EXPECT_EQ(in.read_f64("e"), -2.25);
    EXPECT_EQ(in.read_string("f"), "hello");
    const auto fs = in.read_f32_vec(3, "g");
    ASSERT_EQ(fs.size(), 3u);
    EXPECT_EQ(fs[1], 2.0f);
    const auto is = in.read_i32_vec("h");
    ASSERT_EQ(is.size(), 3u);
    EXPECT_EQ(is[1], -5);
    const auto ds = in.read_f64_vec("i");
    ASSERT_EQ(ds.size(), 2u);
    EXPECT_EQ(ds[1], 8.5);
    in.expect_eof();
  }

  std::string path_ = ::testing::TempDir() + "/tg_io_test.bin";
};

TEST_F(IoTest, RoundTrip) {
  write_sample();
  read_sample(path_);
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(IoTest, Crc32KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 — the standard check value.
  const std::string s = "123456789";
  const std::uint32_t crc = crc32(std::span<const unsigned char>(
      reinterpret_cast<const unsigned char*>(s.data()), s.size()));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST_F(IoTest, TruncationAtEveryByteRaisesCheckError) {
  write_sample();
  const std::vector<unsigned char> full = slurp(path_);
  ASSERT_GT(full.size(), 4u);
  for (std::size_t n = 0; n < full.size(); ++n) {
    spit(path_, {full.begin(), full.begin() + static_cast<std::ptrdiff_t>(n)});
    EXPECT_THROW(read_sample(path_), CheckError) << "truncated to " << n;
  }
}

TEST_F(IoTest, BitFlipAnywhereRaisesCheckError) {
  write_sample();
  const std::vector<unsigned char> full = slurp(path_);
  for (std::size_t i = 0; i < full.size(); ++i) {
    std::vector<unsigned char> bad = full;
    bad[i] ^= 0x10;
    spit(path_, bad);
    EXPECT_THROW(read_sample(path_), CheckError) << "flip at byte " << i;
  }
}

TEST_F(IoTest, ErrorNamesFileAndOffset) {
  write_sample();
  std::vector<unsigned char> full = slurp(path_);
  full.resize(2);  // cut mid-magic
  spit(path_, full);
  try {
    BinaryReader in(path_);
    (void)in.read_u32("magic");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path_), std::string::npos) << msg;
    EXPECT_NE(msg.find("magic"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
  }
}

TEST_F(IoTest, OversizedLengthPrefixRejectedBeforeAllocation) {
  {
    BinaryWriter out(path_);
    out.write_u64(~0ULL);  // absurd count with almost no payload behind it
    out.write_u32(1);
    out.commit();
  }
  BinaryReader in(path_);
  in.verify_crc();
  EXPECT_THROW((void)in.read_i32_vec("huge vector"), CheckError);
}

TEST_F(IoTest, OversizedStringLengthRejectedBeforeAllocation) {
  {
    BinaryWriter out(path_);
    out.write_u64(~0ULL);  // absurd name length with a few bytes behind it
    out.write_u32(0x656D616Eu);
    out.commit();
  }
  BinaryReader in(path_);
  in.verify_crc();
  EXPECT_THROW((void)in.read_string("name"), CheckError);
}

TEST_F(IoTest, ExpectEofCatchesTrailingGarbage) {
  write_sample();
  BinaryReader in(path_);
  in.verify_crc();
  (void)in.read_u32("a");
  EXPECT_THROW(in.expect_eof(), CheckError);
}

TEST_F(IoTest, MissingFileRaisesCheckError) {
  EXPECT_THROW(BinaryReader("/nonexistent/dir/f.bin"), CheckError);
}

TEST_F(IoTest, FailedCommitLeavesPreviousFileIntact) {
  write_sample();
  const std::vector<unsigned char> before = slurp(path_);
  const auto attempt = [&] {
    BinaryWriter out(path_);
    out.write_u32(0xDEADu);
    out.commit();
  };
  for (const char* op : {"open_write", "write", "fsync", "rename"}) {
    fault::arm_io_fault(op, 1);
    EXPECT_THROW(attempt(), CheckError) << "op " << op;
    fault::clear_io_fault();
    EXPECT_EQ(slurp(path_), before) << "op " << op;
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp")) << "op " << op;
    read_sample(path_);  // still loadable
  }
}

TEST_F(IoTest, AbandonedWriterTouchesNothing) {
  write_sample();
  const std::vector<unsigned char> before = slurp(path_);
  {
    BinaryWriter out(path_);
    out.write_u32(0xDEADu);
    // destroyed without commit()
  }
  EXPECT_EQ(slurp(path_), before);
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(IoTest, ReadFaultsInjectable) {
  write_sample();
  fault::arm_io_fault("open_read", 1);
  EXPECT_THROW(BinaryReader r1(path_), CheckError);
  fault::arm_io_fault("read", 1);
  EXPECT_THROW(BinaryReader r2(path_), CheckError);
  fault::clear_io_fault();
  read_sample(path_);
}

TEST_F(IoTest, NthWriteFails) {
  fault::arm_io_fault("write", 3);
  EXPECT_THROW(write_sample(), CheckError);
  EXPECT_GE(fault::matched_io_ops(), 3);
  fault::clear_io_fault();
  write_sample();
  read_sample(path_);
}

TEST_F(IoTest, EnvVariableArmsFault) {
  ASSERT_EQ(setenv("TG_FAULT_IO", "rename:1", 1), 0);
  fault::reparse_io_fault_env();
  EXPECT_THROW(write_sample(), CheckError);
  ASSERT_EQ(unsetenv("TG_FAULT_IO"), 0);
  fault::reparse_io_fault_env();
  write_sample();
  read_sample(path_);
}

TEST_F(IoTest, MalformedEnvValueDisarms) {
  ASSERT_EQ(setenv("TG_FAULT_IO", "not-a-fault-spec", 1), 0);
  fault::reparse_io_fault_env();
  write_sample();  // no throw
  read_sample(path_);
  ASSERT_EQ(unsetenv("TG_FAULT_IO"), 0);
  fault::reparse_io_fault_env();
}

}  // namespace
}  // namespace tg::io
