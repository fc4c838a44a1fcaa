#pragma once
/// \file graph_file.hpp
/// Byte-level helpers for tests that corrupt a saved dataset graph on
/// purpose: find an index array in the file, then re-seal the CRC-32
/// trailer so the checksum no longer hides the corruption from the
/// loader's own checks.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/io.hpp"

namespace tg::testing {

/// Byte offset of the first int32 of `values`, stored as a u64 count
/// followed by its ints (io::BinaryWriter::write_i32_vec), at or after
/// byte `from`; bytes.size() if absent.
inline std::size_t find_i32_array(const std::vector<unsigned char>& bytes,
                                  const std::vector<int>& values,
                                  std::size_t from = 0) {
  std::vector<unsigned char> pattern(8 + 4 * values.size());
  const std::uint64_t count = values.size();
  std::memcpy(pattern.data(), &count, 8);
  if (!values.empty()) {
    std::memcpy(pattern.data() + 8, values.data(), 4 * values.size());
  }
  const auto it = std::search(bytes.begin() + static_cast<long>(from),
                              bytes.end(), pattern.begin(), pattern.end());
  return it == bytes.end() ? bytes.size()
                           : static_cast<std::size_t>(it - bytes.begin()) + 8;
}

/// Byte offset of the u64 `num_nodes` header word of a saved graph named
/// `name`: it follows the u32 magic, the u32 version, the name (u64 length
/// and its bytes) and the u64 is_test flag. The u64 `num_levels` follows it.
inline std::size_t num_nodes_offset(const std::string& name) {
  return 4 + 4 + 8 + name.size() + 8;
}

/// Overwrites the int32 at byte `offset`.
inline void put_i32(std::vector<unsigned char>& bytes, std::size_t offset,
                    int value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

/// Recomputes the CRC-32 trailer (the last 4 bytes) over the payload.
inline void reseal_crc(std::vector<unsigned char>& bytes) {
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  const std::uint32_t crc =
      io::crc32(std::span<const unsigned char>(bytes.data(), body));
  std::memcpy(bytes.data() + body, &crc, sizeof(crc));
}

}  // namespace tg::testing
