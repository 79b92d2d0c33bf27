#pragma once

/// \file quant8.h
/// 8-bit block quantization (§2.3 "Quantization"): each block of 256
/// elements stores one fp32 max-abs scale plus one signed 8-bit code per
/// element.  Nominal ratio ≈ 0.25 plus per-block scale overhead.

#include "compress/compressor.h"

namespace lowdiff {

class Quant8Compressor final : public Compressor {
 public:
  static constexpr std::size_t kBlock = 256;

  CompressedGrad compress(std::span<const float> grad,
                          std::uint64_t iteration) const override;
  void decompress(const CompressedGrad& payload, std::span<float> out) const override;

  double nominal_ratio() const override {
    return (1.0 + 4.0 / static_cast<double>(kBlock)) / 4.0;
  }
  std::string name() const override { return "quant8"; }
  std::unique_ptr<Compressor> clone() const override {
    return std::make_unique<Quant8Compressor>();
  }
};

}  // namespace lowdiff
