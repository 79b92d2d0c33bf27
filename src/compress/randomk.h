#pragma once

/// \file randomk.h
/// Random-K sparsification: keeps a pseudo-random subset of coordinates.
/// The subset is a deterministic function of (seed, iteration) so all
/// workers select identical coordinates — required for the sparse
/// allreduce to sum matching entries.

#include "compress/compressor.h"

namespace lowdiff {

class RandomKCompressor final : public Compressor {
 public:
  RandomKCompressor(double ratio, std::uint64_t seed);

  CompressedGrad compress(std::span<const float> grad,
                          std::uint64_t iteration) const override;
  void decompress(const CompressedGrad& payload, std::span<float> out) const override;

  double nominal_ratio() const override { return ratio_; }
  std::string name() const override;
  std::unique_ptr<Compressor> clone() const override {
    return std::make_unique<RandomKCompressor>(ratio_, seed_);
  }

 private:
  double ratio_;
  std::uint64_t seed_;
};

}  // namespace lowdiff
