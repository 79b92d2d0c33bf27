#pragma once

/// \file merge.h
/// Aggregation of compressed gradients.
///
/// Batched gradient writing (paper §4.2, Fig. 4) accumulates several
/// compressed differentials in CPU memory and persists them as a single
/// batched checkpoint C^B.  For sparse payloads the batch is the index-wise
/// union with summed values; the batch records the iteration range it
/// covers so recovery can replay it in order.

#include <span>
#include <vector>

#include "compress/compressed_grad.h"
#include "compress/compressor.h"

namespace lowdiff {

/// A batch of compressed differentials written as one I/O operation.
struct BatchedGrad {
  std::uint64_t first_iteration = 0;
  std::uint64_t last_iteration = 0;
  /// Individual payloads in iteration order.  Kept (rather than only the
  /// merged sum) because optimizer replay is order-dependent; the merged
  /// form below is used for size accounting and additive-delta recovery.
  std::vector<CompressedGrad> members;

  std::size_t byte_size() const;
  std::size_t count() const { return members.size(); }

  /// Exact size serialize()/serialize_into() produce (byte_size() plus the
  /// member-count and per-member length prefixes).
  std::size_t serialized_size() const;

  std::vector<std::byte> serialize() const;

  /// Writes the serialized form into a caller-provided buffer of at least
  /// serialized_size() bytes; members serialize in place, no temporaries.
  /// Returns the bytes written.
  std::size_t serialize_into(std::span<std::byte> out) const;

  static BatchedGrad deserialize(std::span<const std::byte> bytes);
};

/// Index-union sum of sparse payloads (all kTopK/kRandomK over the same
/// dense size).  The result's iteration is the last member's.  This is the
/// "tensor addition" aggregation of the batched-writing module; it is what
/// the write path would persist when the consumer only needs the summed
/// update (e.g. SGD deltas, which compose additively).
///
/// Two implementations behind one dispatch, both bit-identical to the
/// pairwise reference in tests/support/merge_pairwise.h (duplicate
/// coordinates accumulate in payload order, the cascade's exact left
/// fold): a dense scatter-accumulator, O(total + dense_size), when the
/// batch is dense in aggregate; and a k-way heap union-sum, O(total·log B)
/// for B payloads, for the sparse regime.  Both replace the pairwise
/// cascade's O(total·B).
CompressedGrad merge_sparse_sum(std::span<const CompressedGrad> payloads);

}  // namespace lowdiff
