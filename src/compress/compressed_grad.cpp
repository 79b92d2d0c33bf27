#include "compress/compressed_grad.h"

#include <cstring>

#include "common/error.h"
#include "compress/quant8.h"

namespace lowdiff {
namespace {

/// Bounds-unchecked cursor over a pre-sized destination; the caller
/// (serialize_into) validates the total against serialized_size() once.
class Writer {
 public:
  explicit Writer(std::span<std::byte> out) : out_(out) {}

  template <typename T>
  void write(const T& value) {
    std::memcpy(out_.data() + pos_, &value, sizeof(T));
    pos_ += sizeof(T);
  }

  template <typename T>
  void write_vec(const std::vector<T>& v) {
    write(static_cast<std::uint64_t>(v.size()));
    if (!v.empty()) {
      std::memcpy(out_.data() + pos_, v.data(), v.size() * sizeof(T));
      pos_ += v.size() * sizeof(T);
    }
  }

  std::size_t written() const { return pos_; }

 private:
  std::span<std::byte> out_;
  std::size_t pos_ = 0;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
  T read() {
    LOWDIFF_ENSURE(pos_ + sizeof(T) <= bytes_.size(), "truncated compressed gradient");
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> read_vec() {
    const auto n = read<std::uint64_t>();
    // Divides rather than multiplies: n comes from the bytes and may be
    // large enough for n * sizeof(T) to wrap.
    LOWDIFF_ENSURE(n <= (bytes_.size() - pos_) / sizeof(T),
                   "truncated compressed gradient");
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

const char* to_string(CompressionScheme scheme) {
  switch (scheme) {
    case CompressionScheme::kDense: return "dense";
    case CompressionScheme::kTopK: return "topk";
    case CompressionScheme::kRandomK: return "randomk";
    case CompressionScheme::kQuant8: return "quant8";
  }
  return "?";
}

std::size_t CompressedGrad::byte_size() const {
  return sizeof(scheme) + sizeof(dense_size) + sizeof(iteration) +
         indices.size() * sizeof(std::uint32_t) + values.size() * sizeof(float) +
         scales.size() * sizeof(float) + codes.size();
}

std::size_t CompressedGrad::serialized_size() const {
  return byte_size() + 4 * sizeof(std::uint64_t);
}

std::vector<std::byte> CompressedGrad::serialize() const {
  std::vector<std::byte> out(serialized_size());
  const std::size_t written = serialize_into(out);
  LOWDIFF_ENSURE(written == out.size(), "serialized_size mismatch");
  return out;
}

std::size_t CompressedGrad::serialize_into(std::span<std::byte> out) const {
  LOWDIFF_ENSURE(out.size() >= serialized_size(),
                 "serialize_into buffer too small");
  Writer w(out);
  w.write(static_cast<std::uint8_t>(scheme));
  w.write(dense_size);
  w.write(iteration);
  w.write_vec(indices);
  w.write_vec(values);
  w.write_vec(scales);
  w.write_vec(codes);
  return w.written();
}

CompressedGrad CompressedGrad::deserialize(std::span<const std::byte> bytes) {
  Reader r(bytes);
  CompressedGrad g;
  const auto scheme = r.read<std::uint8_t>();
  LOWDIFF_ENSURE(scheme <= static_cast<std::uint8_t>(CompressionScheme::kQuant8),
                 "unknown compression scheme");
  g.scheme = static_cast<CompressionScheme>(scheme);
  g.dense_size = r.read<std::uint64_t>();
  g.iteration = r.read<std::uint64_t>();
  g.indices = r.read_vec<std::uint32_t>();
  g.values = r.read_vec<float>();
  g.scales = r.read_vec<float>();
  g.codes = r.read_vec<std::uint8_t>();
  LOWDIFF_ENSURE(r.exhausted(), "trailing bytes after compressed gradient");
  LOWDIFF_ENSURE(g.indices.size() == g.values.size() || g.indices.empty(),
                 "index/value count mismatch");
  // The decoders index their output by these fields without a bounds check,
  // so a payload no compressor writes must not get past here.
  std::uint64_t floor = 0;  // the least index the next entry may hold
  for (const std::uint32_t i : g.indices) {
    LOWDIFF_ENSURE(i >= floor && i < g.dense_size,
                   "sparse indices must ascend strictly below the dense size");
    floor = std::uint64_t{i} + 1;
  }
  if (g.scheme == CompressionScheme::kDense) {
    LOWDIFF_ENSURE(g.values.size() == g.dense_size, "dense value count mismatch");
  } else if (g.scheme == CompressionScheme::kQuant8) {
    constexpr std::size_t kBlock = Quant8Compressor::kBlock;
    LOWDIFF_ENSURE(g.codes.size() == g.dense_size &&
                       g.scales.size() == (g.codes.size() + kBlock - 1) / kBlock,
                   "quantized code or scale count mismatch");
  }
  return g;
}

}  // namespace lowdiff
