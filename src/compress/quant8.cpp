#include "compress/quant8.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace lowdiff {

CompressedGrad Quant8Compressor::compress(std::span<const float> grad,
                                          std::uint64_t iteration) const {
  CompressedGrad out;
  out.scheme = CompressionScheme::kQuant8;
  out.dense_size = grad.size();
  out.iteration = iteration;
  const std::size_t blocks = (grad.size() + kBlock - 1) / kBlock;
  out.scales.resize(blocks);
  out.codes.resize(grad.size());

  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(grad.size(), lo + kBlock);
    float max_abs = 0.0f;
    for (std::size_t i = lo; i < hi; ++i) {
      max_abs = std::max(max_abs, std::fabs(grad[i]));
    }
    const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
    out.scales[b] = scale;
    for (std::size_t i = lo; i < hi; ++i) {
      const float q = std::round(grad[i] / scale);
      const auto code = static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
      out.codes[i] = static_cast<std::uint8_t>(code);
    }
  }
  return out;
}

void Quant8Compressor::decompress(const CompressedGrad& payload,
                                  std::span<float> out) const {
  LOWDIFF_ENSURE(payload.scheme == CompressionScheme::kQuant8,
                 "payload scheme mismatch");
  LOWDIFF_ENSURE(out.size() == payload.dense_size, "decompress size mismatch");
  LOWDIFF_ENSURE(payload.codes.size() == payload.dense_size, "code count mismatch");
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float scale = payload.scales[i / kBlock];
    out[i] = static_cast<float>(static_cast<std::int8_t>(payload.codes[i])) * scale;
  }
}

}  // namespace lowdiff
