#include "compress/topk.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>

#include "common/error.h"

namespace lowdiff {
namespace {

/// The float's bits with the sign cleared: for non-NaN values integer order
/// on these bits equals fabs order.
inline std::uint32_t mag_bits(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits & 0x7FFFFFFFu;
}

/// The selection order as one integer: magnitude bits high, ~index low, so
/// that descending key order is |v| descending with the LOWER index first
/// on equal magnitudes.
inline std::uint64_t pack_key(float v, std::uint32_t index) {
  return (static_cast<std::uint64_t>(mag_bits(v)) << 32) |
         static_cast<std::uint64_t>(~index);
}

inline std::uint32_t unpack_index(std::uint64_t key) {
  return ~static_cast<std::uint32_t>(key);
}

/// log2 of the histogram's bucket count for n floats: one bucket per two to
/// four floats, from 2^8 buckets (the exponent alone) to 2^15 (128 KiB of
/// counts, which stays in L2).  Steps at every power of two in between.
int histogram_bits(std::size_t n) {
  return std::clamp(static_cast<int>(std::bit_width(n)) - 2, 8, 15);
}

/// Histogram (radix) top-k selection in two linear passes.
///
/// Pass 1 counts every element into bucket mag_bits >> shift.  Walking the
/// buckets down from the top finds the threshold bucket t: the buckets
/// above it hold k_above < k entries, and t's entries reach k.  Pass 2
/// collects every index above t (ascending, because the scan is) and the
/// packed keys of t's entries, from which nth_element picks the k - k_above
/// winners still owed.
///
/// The bucket is monotone in the magnitude bits, so every entry above t
/// precedes every entry of t in the pack_key total order, and a total order
/// has exactly one top-k set: the bucket count changes speed, never output.
void select_topk(std::span<const float> grad, std::size_t k,
                 std::vector<std::uint32_t>& indices) {
  const int bits = histogram_bits(grad.size());
  const int shift = 31 - bits;
  std::vector<std::uint32_t> hist(std::size_t{1} << bits, 0);
  for (const float v : grad) ++hist[mag_bits(v) >> shift];

  std::size_t t = hist.size(), k_above = 0;
  while (k_above + hist[--t] < k) k_above += hist[t];
  const std::size_t need = k - k_above;  // winners still owed by bucket t

  indices.resize(k);
  std::vector<std::uint64_t> tkeys(hist[t]);
  std::uint32_t* above = indices.data();
  std::uint64_t* in_t = tkeys.data();
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const std::uint32_t bucket = mag_bits(grad[i]) >> shift;
    if (bucket > t) {
      *above++ = static_cast<std::uint32_t>(i);
    } else if (bucket == t) {
      *in_t++ = pack_key(grad[i], static_cast<std::uint32_t>(i));
    }
  }

  if (need < tkeys.size()) {
    std::nth_element(tkeys.begin(),
                     tkeys.begin() + static_cast<std::ptrdiff_t>(need) - 1,
                     tkeys.end(), std::greater<std::uint64_t>());
  }
  const auto tail = indices.begin() + static_cast<std::ptrdiff_t>(k_above);
  for (std::size_t i = 0; i < need; ++i) tail[i] = unpack_index(tkeys[i]);
  // Ascending coordinates on the wire: the indices above t already are.
  std::sort(tail, indices.end());
  std::inplace_merge(indices.begin(), tail, indices.end());
}

}  // namespace

TopKCompressor::TopKCompressor(double ratio) : ratio_(ratio) {
  LOWDIFF_ENSURE(ratio > 0.0 && ratio <= 1.0, "top-k ratio must be in (0, 1]");
}

std::size_t TopKCompressor::k_for(std::size_t n) const {
  if (n == 0) return 0;
  const auto k = static_cast<std::size_t>(std::llround(ratio_ * static_cast<double>(n)));
  return std::clamp<std::size_t>(k, 1, n);
}

CompressedGrad TopKCompressor::compress(std::span<const float> grad,
                                        std::uint64_t iteration) const {
  CompressedGrad out;
  out.scheme = CompressionScheme::kTopK;
  out.dense_size = grad.size();
  out.iteration = iteration;
  const std::size_t k = k_for(grad.size());
  if (k == 0) return out;

  select_topk(grad, k, out.indices);
  out.values.resize(k);
  for (std::size_t i = 0; i < k; ++i) out.values[i] = grad[out.indices[i]];
  return out;
}

void TopKCompressor::decompress(const CompressedGrad& payload,
                                std::span<float> out) const {
  LOWDIFF_ENSURE(payload.scheme == CompressionScheme::kTopK,
                 "payload scheme mismatch");
  LOWDIFF_ENSURE(out.size() == payload.dense_size, "decompress size mismatch");
  std::fill(out.begin(), out.end(), 0.0f);
  for (std::size_t i = 0; i < payload.indices.size(); ++i) {
    out[payload.indices[i]] = payload.values[i];
  }
}

std::string TopKCompressor::name() const {
  return "topk(rho=" + std::to_string(ratio_) + ")";
}

}  // namespace lowdiff
