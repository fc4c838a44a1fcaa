#include "nn/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace tg::nn {

namespace {

constexpr std::uint32_t kMagic = 0x314E4754;  // "TGN1" (LE bytes)
constexpr std::uint32_t kVersion = 1;

using BlobMap =
    std::map<std::string, std::pair<std::uint32_t, std::vector<float>>>;

/// Dimension sanity cap: no tensor in this project has a side anywhere near
/// 2^31; a corrupted dimension past it fails fast with a named error.
void check_dims(io::BinaryReader& in, std::uint64_t rows, std::uint64_t cols,
                const std::string& name) {
  TG_CHECK_MSG(rows < (1ull << 31) && cols < (1ull << 31),
               in.path() << ": implausible shape " << rows << "x" << cols
                         << " for parameter '" << name << "' at offset "
                         << in.offset());
}

BlobMap read_blobs(io::BinaryReader& in) {
  const std::uint32_t count = in.read_u32("parameter count");
  BlobMap blobs;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = in.read_string("parameter name");
    const std::uint32_t rows = in.read_u32("parameter rows");
    const std::uint32_t cols = in.read_u32("parameter cols");
    check_dims(in, rows, cols, name);
    std::vector<float> data = in.read_f32_vec(
        static_cast<std::uint64_t>(rows) * cols, "parameter data");
    blobs.emplace(std::move(name), std::make_pair(rows, std::move(data)));
  }
  return blobs;
}

void apply_blobs(Module& module, const BlobMap& blobs,
                 const std::string& path) {
  std::size_t matched = 0;
  for (std::size_t i = 0; i < module.parameters().size(); ++i) {
    const std::string& name = module.parameter_names()[i];
    auto it = blobs.find(name);
    TG_CHECK_MSG(it != blobs.end(),
                 "parameter missing from " << path << ": " << name);
    Tensor t = module.parameters()[i];
    TG_CHECK_MSG(static_cast<std::size_t>(t.numel()) == it->second.second.size(),
                 "shape mismatch for " << name << " in " << path);
    std::copy(it->second.second.begin(), it->second.second.end(),
              t.data().begin());
    ++matched;
  }
  TG_CHECK_MSG(matched == blobs.size(),
               path << " has " << blobs.size() << " tensors, module expects "
                    << matched);
}

}  // namespace

void write_parameter_block(const Module& module, io::BinaryWriter& out) {
  out.write_u32(static_cast<std::uint32_t>(module.parameters().size()));
  for (std::size_t i = 0; i < module.parameters().size(); ++i) {
    const Tensor& t = module.parameters()[i];
    out.write_string(module.parameter_names()[i]);
    out.write_u32(static_cast<std::uint32_t>(t.rows()));
    out.write_u32(static_cast<std::uint32_t>(t.cols()));
    out.write_f32_span(t.data());
  }
}

void read_parameter_block(Module& module, io::BinaryReader& in) {
  apply_blobs(module, read_blobs(in), in.path());
}

void save_parameters(const Module& module, const std::string& path) {
  io::BinaryWriter out(path);
  out.write_u32(kMagic);
  out.write_u32(kVersion);
  write_parameter_block(module, out);
  out.commit();
}

void load_parameters(Module& module, const std::string& path) {
  io::BinaryReader in(path);
  TG_CHECK_MSG(in.read_u32("magic") == kMagic,
               "bad model file magic in " << path);
  in.verify_crc();
  const std::uint32_t version = in.read_u32("format version");
  TG_CHECK_MSG(version == kVersion, path << ": unsupported model format"
                                         << " version " << version);
  const BlobMap blobs = read_blobs(in);
  in.expect_eof();
  apply_blobs(module, blobs, path);
}

}  // namespace tg::nn
