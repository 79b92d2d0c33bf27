#include "support/topk_reference.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace lowdiff {

void select_serial(std::span<const float> grad, std::size_t k,
                   std::vector<std::uint32_t>& indices) {
  indices.resize(grad.size());
  std::iota(indices.begin(), indices.end(), 0u);
  auto by_magnitude = [&grad](std::uint32_t a, std::uint32_t b) {
    const float fa = std::fabs(grad[a]);
    const float fb = std::fabs(grad[b]);
    if (fa != fb) return fa > fb;
    return a < b;  // deterministic tie-break
  };
  std::nth_element(indices.begin(),
                   indices.begin() + static_cast<std::ptrdiff_t>(k) - 1,
                   indices.end(), by_magnitude);
  indices.resize(k);
  std::sort(indices.begin(), indices.end());  // ascending coordinates on the wire
}

CompressedGrad reference_topk(std::span<const float> grad, std::size_t k,
                              std::uint64_t iteration) {
  CompressedGrad out;
  out.scheme = CompressionScheme::kTopK;
  out.dense_size = grad.size();
  out.iteration = iteration;
  select_serial(grad, k, out.indices);
  out.values.reserve(k);
  for (const std::uint32_t i : out.indices) out.values.push_back(grad[i]);
  return out;
}

}  // namespace lowdiff
