#pragma once
/// \file io.hpp
/// Fault-tolerant binary persistence: the substrate under every on-disk
/// format in the repository (model parameters, dataset graphs, training
/// checkpoints).
///
/// Guarantees (see DESIGN.md "Failure model & persistence"):
///   - **Detection.** Every primitive read is bounds-checked against the
///     file, so a truncated file raises CheckError naming the file, the
///     field and the byte offset instead of returning garbage. Length
///     prefixes are capped by the bytes actually remaining, so a corrupted
///     count can never trigger a multi-GB allocation. `verify_crc` checks a
///     CRC-32 trailer over the whole payload, catching bit flips that keep
///     the structure parseable.
///   - **Atomic commit.** BinaryWriter buffers the payload and `commit()`
///     writes `<path>.tmp`, fsyncs, then renames over `path`. A crash or
///     injected fault at any point leaves the previous file intact; the
///     destructor removes a stale tmp.
///   - **Injectable faults.** Every OS interaction consults
///     `fault::should_fail_io` (TG_FAULT_IO=<op>:<nth>), so tests can kill
///     a save/load at each failure point deterministically.
///
/// Values are stored little-endian (native on every supported target).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace tg::io {

/// CRC-32 (IEEE, reflected polynomial 0xEDB88320) of `bytes`; pass a
/// previous result as `crc` to checksum incrementally.
[[nodiscard]] std::uint32_t crc32(std::span<const unsigned char> bytes,
                                  std::uint32_t crc = 0);

/// Buffers a binary payload and commits it atomically: payload + CRC-32
/// trailer to `<path>.tmp`, fsync, rename to `path`. Nothing touches the
/// filesystem before `commit()`, so an abandoned writer (error unwind,
/// injected fault) never clobbers the previous file.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string path);
  ~BinaryWriter();
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_bytes(const void* data, std::size_t n);
  /// u64 length prefix + raw bytes.
  void write_string(const std::string& s);
  /// Raw floats, no length prefix (caller records the dimensions).
  void write_f32_span(std::span<const float> v);
  /// u64 count prefix + raw payload.
  void write_i32_vec(const std::vector<int>& v);
  void write_f64_vec(const std::vector<double>& v);

  /// Appends the CRC trailer and atomically publishes the file. Throws
  /// CheckError (leaving any previous `path` content intact) on failure.
  void commit();

  [[nodiscard]] std::size_t bytes_buffered() const { return buf_.size(); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void append(const void* data, std::size_t n);

  std::string path_;
  std::string tmp_path_;
  std::vector<unsigned char> buf_;
  bool committed_ = false;
};

/// Reads a whole file up front, then serves bounds-checked primitive reads
/// from the buffer. Every failure is a CheckError naming the file, the
/// field being read (`what`) and the byte offset — never a crash, never
/// silently-garbage data.
class BinaryReader {
 public:
  explicit BinaryReader(std::string path);

  /// Validates the trailing CRC-32 over everything before it, then excludes
  /// the trailer from the readable range. Call once on formats written by
  /// BinaryWriter, after reading the magic and before any other field.
  void verify_crc();

  [[nodiscard]] std::uint8_t read_u8(const char* what);
  [[nodiscard]] std::uint32_t read_u32(const char* what);
  [[nodiscard]] std::uint64_t read_u64(const char* what);
  [[nodiscard]] float read_f32(const char* what);
  [[nodiscard]] double read_f64(const char* what);
  /// u64 length prefix (capped by remaining bytes) + raw bytes.
  [[nodiscard]] std::string read_string(const char* what);
  /// `count` raw floats; `count` is validated against the remaining bytes
  /// *before* allocating.
  [[nodiscard]] std::vector<float> read_f32_vec(std::uint64_t count,
                                                const char* what);
  /// u64 count prefix + payload, count capped by remaining bytes.
  [[nodiscard]] std::vector<int> read_i32_vec(const char* what);
  [[nodiscard]] std::vector<double> read_f64_vec(const char* what);

  /// Asserts the payload was fully consumed (catches trailing garbage and
  /// internally inconsistent length fields).
  void expect_eof() const;

  [[nodiscard]] std::size_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return end_ - pos_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void need(std::size_t n, const char* what) const;
  template <typename T>
  T read_scalar(const char* what);

  std::string path_;
  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

}  // namespace tg::io
