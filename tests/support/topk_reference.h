#pragma once

/// \file topk_reference.h
/// Reference top-k selection.  TopKCompressor (compress/topk.h) must select
/// exactly the set it does; test_datapath and the bench_micro datapath gate
/// compare the two.

#include <cstdint>
#include <span>
#include <vector>

#include "compress/compressed_grad.h"

namespace lowdiff {

/// nth_element over an index array with an indirect fabs comparator (the
/// original serial selection): the k largest magnitudes, lower index first
/// on ties, emitted ascending.  The comparator does not strictly order NaN,
/// so inputs must hold none.
void select_serial(std::span<const float> grad, std::size_t k,
                   std::vector<std::uint32_t>& indices);

/// The payload TopKCompressor must produce when it keeps k entries of
/// `grad`: select_serial's indices with their values gathered.
CompressedGrad reference_topk(std::span<const float> grad, std::size_t k,
                              std::uint64_t iteration);

}  // namespace lowdiff
