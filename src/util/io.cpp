#include "util/io.hpp"

#include <array>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "util/check.hpp"
#include "util/fault.hpp"

namespace tg::io {

// ---- CRC-32 ---------------------------------------------------------------

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const unsigned char> bytes, std::uint32_t crc) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (unsigned char b : bytes) {
    c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---- BinaryWriter ---------------------------------------------------------

BinaryWriter::BinaryWriter(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {}

BinaryWriter::~BinaryWriter() {
  // commit() already cleaned up after itself; this catches the abandoned-
  // mid-save unwind where the tmp never existed, so nothing to do besides
  // defensive removal of a stale tmp from a previous crashed process.
  if (!committed_) std::remove(tmp_path_.c_str());
}

void BinaryWriter::append(const void* data, std::size_t n) {
  TG_CHECK_MSG(!fault::should_fail_io("write"),
               "injected I/O fault: write of " << n << " byte(s) for "
                                               << path_);
  const auto* p = static_cast<const unsigned char*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void BinaryWriter::write_u8(std::uint8_t v) { append(&v, sizeof(v)); }
void BinaryWriter::write_u32(std::uint32_t v) { append(&v, sizeof(v)); }
void BinaryWriter::write_u64(std::uint64_t v) { append(&v, sizeof(v)); }
void BinaryWriter::write_f32(float v) { append(&v, sizeof(v)); }
void BinaryWriter::write_f64(double v) { append(&v, sizeof(v)); }
void BinaryWriter::write_bytes(const void* data, std::size_t n) {
  append(data, n);
}

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  append(s.data(), s.size());
}

void BinaryWriter::write_f32_span(std::span<const float> v) {
  append(v.data(), v.size() * sizeof(float));
}

void BinaryWriter::write_i32_vec(const std::vector<int>& v) {
  write_u64(v.size());
  append(v.data(), v.size() * sizeof(int));
}

void BinaryWriter::write_f64_vec(const std::vector<double>& v) {
  write_u64(v.size());
  append(v.data(), v.size() * sizeof(double));
}

void BinaryWriter::commit() {
  TG_CHECK_MSG(!committed_, "double commit on " << path_);

  // CRC trailer over the entire payload (not itself).
  const std::uint32_t crc = crc32(buf_);
  const auto* crc_bytes = reinterpret_cast<const unsigned char*>(&crc);
  buf_.insert(buf_.end(), crc_bytes, crc_bytes + sizeof(crc));

  TG_CHECK_MSG(!fault::should_fail_io("open_write"),
               "injected I/O fault: open " << tmp_path_ << " for writing");
  std::FILE* f = std::fopen(tmp_path_.c_str(), "wb");
  TG_CHECK_MSG(f != nullptr, "cannot open " << tmp_path_ << " for writing");

  const bool write_ok =
      !fault::should_fail_io("write") &&
      std::fwrite(buf_.data(), 1, buf_.size(), f) == buf_.size();
  // Flush through libc and the kernel before the rename publishes the file,
  // so a machine crash cannot leave a renamed-but-empty payload.
  const bool fsync_ok = write_ok && std::fflush(f) == 0 &&
                        !fault::should_fail_io("fsync") &&
                        ::fsync(fileno(f)) == 0;
  std::fclose(f);
  if (!fsync_ok) {
    std::remove(tmp_path_.c_str());
    TG_CHECK_MSG(false, "short write committing " << path_
                            << " (tmp removed, previous file intact)");
  }

  const bool rename_ok = !fault::should_fail_io("rename") &&
                         std::rename(tmp_path_.c_str(), path_.c_str()) == 0;
  if (!rename_ok) {
    std::remove(tmp_path_.c_str());
    TG_CHECK_MSG(false, "cannot rename " << tmp_path_ << " over " << path_
                                         << " (previous file intact)");
  }
  committed_ = true;
}

// ---- BinaryReader ---------------------------------------------------------

BinaryReader::BinaryReader(std::string path) : path_(std::move(path)) {
  TG_CHECK_MSG(!fault::should_fail_io("open_read"),
               "injected I/O fault: open " << path_ << " for reading");
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  TG_CHECK_MSG(f != nullptr, "cannot read " << path_);
  bool ok = std::fseek(f, 0, SEEK_END) == 0;
  const long size = ok ? std::ftell(f) : -1;
  ok = ok && size >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
  if (ok) {
    buf_.resize(static_cast<std::size_t>(size));
    ok = buf_.empty() ||
         (!fault::should_fail_io("read") &&
          std::fread(buf_.data(), 1, buf_.size(), f) == buf_.size());
  }
  std::fclose(f);
  TG_CHECK_MSG(ok, "short read loading " << path_);
  end_ = buf_.size();
}

void BinaryReader::need(std::size_t n, const char* what) const {
  TG_CHECK_MSG(n <= end_ - pos_,
               path_ << ": truncated or corrupt file — need " << n
                     << " byte(s) for " << what << " at offset " << pos_
                     << ", only " << (end_ - pos_) << " remaining");
}

void BinaryReader::verify_crc() {
  TG_CHECK_MSG(end_ - pos_ >= sizeof(std::uint32_t),
               path_ << ": file too short for a CRC trailer");
  const std::size_t body_end = end_ - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, buf_.data() + body_end, sizeof(stored));
  const std::uint32_t computed =
      crc32(std::span<const unsigned char>(buf_.data(), body_end));
  TG_CHECK_MSG(stored == computed,
               path_ << ": CRC mismatch over " << body_end
                     << " payload byte(s) (stored " << stored << ", computed "
                     << computed << ") — file is corrupt");
  end_ = body_end;
}

template <typename T>
T BinaryReader::read_scalar(const char* what) {
  need(sizeof(T), what);
  T v;
  std::memcpy(&v, buf_.data() + pos_, sizeof(T));
  pos_ += sizeof(T);
  return v;
}

std::uint8_t BinaryReader::read_u8(const char* what) {
  return read_scalar<std::uint8_t>(what);
}
std::uint32_t BinaryReader::read_u32(const char* what) {
  return read_scalar<std::uint32_t>(what);
}
std::uint64_t BinaryReader::read_u64(const char* what) {
  return read_scalar<std::uint64_t>(what);
}
float BinaryReader::read_f32(const char* what) {
  return read_scalar<float>(what);
}
double BinaryReader::read_f64(const char* what) {
  return read_scalar<double>(what);
}

std::string BinaryReader::read_string(const char* what) {
  // The cap also bounds the allocation: a corrupted length can never exceed
  // the bytes that are actually present.
  const auto n = static_cast<std::size_t>(read_u64(what));
  need(n, what);
  std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<float> BinaryReader::read_f32_vec(std::uint64_t count,
                                              const char* what) {
  // Divide instead of multiplying so a huge count cannot overflow u64.
  TG_CHECK_MSG(count <= remaining() / sizeof(float),
               path_ << ": length " << count << " for " << what
                     << " at offset " << pos_ << " exceeds the " << remaining()
                     << " byte(s) remaining");
  std::vector<float> v(static_cast<std::size_t>(count));
  std::memcpy(v.data(), buf_.data() + pos_, v.size() * sizeof(float));
  pos_ += v.size() * sizeof(float);
  return v;
}

std::vector<int> BinaryReader::read_i32_vec(const char* what) {
  const std::uint64_t count = read_u64(what);
  TG_CHECK_MSG(count <= remaining() / sizeof(int),
               path_ << ": length " << count << " for " << what
                     << " at offset " << pos_ << " exceeds the " << remaining()
                     << " byte(s) remaining");
  std::vector<int> v(static_cast<std::size_t>(count));
  std::memcpy(v.data(), buf_.data() + pos_, v.size() * sizeof(int));
  pos_ += v.size() * sizeof(int);
  return v;
}

std::vector<double> BinaryReader::read_f64_vec(const char* what) {
  const std::uint64_t count = read_u64(what);
  TG_CHECK_MSG(count <= remaining() / sizeof(double),
               path_ << ": length " << count << " for " << what
                     << " at offset " << pos_ << " exceeds the " << remaining()
                     << " byte(s) remaining");
  std::vector<double> v(static_cast<std::size_t>(count));
  std::memcpy(v.data(), buf_.data() + pos_, v.size() * sizeof(double));
  pos_ += v.size() * sizeof(double);
  return v;
}

void BinaryReader::expect_eof() const {
  TG_CHECK_MSG(pos_ == end_, path_ << ": " << (end_ - pos_)
                                   << " unexpected trailing byte(s) at offset "
                                   << pos_);
}

}  // namespace tg::io
