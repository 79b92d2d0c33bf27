#pragma once

/// \file compressor.h
/// Gradient compression interface (paper §2.3).  Implementations must be
/// deterministic for a given input (and iteration, for randomized schemes):
/// every worker compresses the same synchronized gradient to the same
/// payload, and recovery re-decompresses checkpointed payloads.
/// compress() and decompress() are const and keep no scratch in the object,
/// so the ranks may call one compressor at the same time.

#include <memory>
#include <span>
#include <string>

#include "compress/compressed_grad.h"

namespace lowdiff {

class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Compresses a dense gradient.  `iteration` seeds randomized schemes and
  /// is recorded in the payload for recovery ordering.
  virtual CompressedGrad compress(std::span<const float> grad,
                                  std::uint64_t iteration) const = 0;

  /// Reconstructs a dense gradient: `out` is fully overwritten (missing
  /// coordinates become zero).  out.size() must equal payload.dense_size.
  virtual void decompress(const CompressedGrad& payload,
                          std::span<float> out) const = 0;

  /// Nominal compressed/dense size ratio (the paper's ρ), used by the
  /// analytic cost models.
  virtual double nominal_ratio() const = 0;

  virtual std::string name() const = 0;
  virtual std::unique_ptr<Compressor> clone() const = 0;
};

}  // namespace lowdiff
