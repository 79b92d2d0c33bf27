#pragma once

/// \file topk.h
/// Top-K magnitude sparsification — the paper's default compression
/// (ρ = 0.01, §6.1).  Keeps the k = max(1, round(ρ·n)) largest-magnitude
/// coordinates, emitted in ascending coordinate order.
///
/// Selection order: |v| descending, the lower index first on equal
/// magnitudes (so -0.0 ties +0.0, and -inf ties +inf).  This is a total
/// order, so the top-k set — and the payload — is a pure function of the
/// input.  Magnitudes are ranked by their bits with the sign cleared, so a
/// NaN ranks above infinity.  The reference selection the tests compare
/// against (tests/support/topk_reference.h) uses an fabs comparator, which
/// does not strictly order NaN; the reference tests therefore use no NaN.

#include "compress/compressor.h"

namespace lowdiff {

class TopKCompressor final : public Compressor {
 public:
  /// ρ ∈ (0, 1]: fraction of coordinates retained.
  explicit TopKCompressor(double ratio);

  CompressedGrad compress(std::span<const float> grad,
                          std::uint64_t iteration) const override;
  void decompress(const CompressedGrad& payload, std::span<float> out) const override;

  double nominal_ratio() const override { return ratio_; }
  std::string name() const override;
  std::unique_ptr<Compressor> clone() const override {
    return std::make_unique<TopKCompressor>(ratio_);
  }

  /// Number of retained coordinates for a gradient of n elements.
  std::size_t k_for(std::size_t n) const;

 private:
  double ratio_;
};

}  // namespace lowdiff
