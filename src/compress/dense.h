#pragma once

/// \file dense.h
/// Identity "compressor": the payload carries the full gradient.  Used by
/// the non-compression scenarios (§5, LowDiff+) so the same queue/write
/// machinery handles both modes.

#include "compress/compressor.h"

#include <algorithm>

#include "common/error.h"

namespace lowdiff {

class DenseCompressor final : public Compressor {
 public:
  CompressedGrad compress(std::span<const float> grad,
                          std::uint64_t iteration) const override {
    CompressedGrad out;
    out.scheme = CompressionScheme::kDense;
    out.dense_size = grad.size();
    out.iteration = iteration;
    out.values.assign(grad.begin(), grad.end());
    return out;
  }

  void decompress(const CompressedGrad& payload, std::span<float> out) const override {
    LOWDIFF_ENSURE(payload.scheme == CompressionScheme::kDense,
                   "payload scheme mismatch");
    LOWDIFF_ENSURE(out.size() == payload.dense_size, "decompress size mismatch");
    std::copy(payload.values.begin(), payload.values.end(), out.begin());
  }

  double nominal_ratio() const override { return 1.0; }
  std::string name() const override { return "dense"; }
  std::unique_ptr<Compressor> clone() const override {
    return std::make_unique<DenseCompressor>();
  }
};

}  // namespace lowdiff
