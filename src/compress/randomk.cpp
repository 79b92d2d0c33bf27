#include "compress/randomk.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace lowdiff {

RandomKCompressor::RandomKCompressor(double ratio, std::uint64_t seed)
    : ratio_(ratio), seed_(seed) {
  LOWDIFF_ENSURE(ratio > 0.0 && ratio <= 1.0, "random-k ratio must be in (0, 1]");
}

CompressedGrad RandomKCompressor::compress(std::span<const float> grad,
                                           std::uint64_t iteration) const {
  CompressedGrad out;
  out.scheme = CompressionScheme::kRandomK;
  out.dense_size = grad.size();
  out.iteration = iteration;
  if (grad.empty()) return out;

  const auto n = grad.size();
  auto k = static_cast<std::size_t>(std::llround(ratio_ * static_cast<double>(n)));
  k = std::clamp<std::size_t>(k, 1, n);

  // Floyd's algorithm: sample k distinct coordinates deterministically.
  SplitMix64 sm(seed_ ^ (iteration * 0xA24BAED4963EE407ull + 1));
  Xoshiro256 rng(sm.next());
  std::vector<std::uint32_t> picked;
  picked.reserve(k);
  std::vector<bool> taken(n, false);
  for (std::size_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::size_t>(rng.uniform_below(j + 1));
    const std::size_t chosen = taken[t] ? j : t;
    taken[chosen] = true;
    picked.push_back(static_cast<std::uint32_t>(chosen));
  }
  std::sort(picked.begin(), picked.end());

  out.indices = std::move(picked);
  out.values.resize(k);
  for (std::size_t i = 0; i < k; ++i) out.values[i] = grad[out.indices[i]];
  return out;
}

void RandomKCompressor::decompress(const CompressedGrad& payload,
                                   std::span<float> out) const {
  LOWDIFF_ENSURE(payload.scheme == CompressionScheme::kRandomK,
                 "payload scheme mismatch");
  LOWDIFF_ENSURE(out.size() == payload.dense_size, "decompress size mismatch");
  std::fill(out.begin(), out.end(), 0.0f);
  for (std::size_t i = 0; i < payload.indices.size(); ++i) {
    out[payload.indices[i]] = payload.values[i];
  }
}

std::string RandomKCompressor::name() const {
  return "randomk(rho=" + std::to_string(ratio_) + ")";
}

}  // namespace lowdiff
