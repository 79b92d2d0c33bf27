#pragma once

/// \file merge_pairwise.h
/// Reference union-sum for batched sparse payloads.  merge_sparse_sum
/// (compress/merge.h) must stay bit-identical to it; test_datapath and the
/// bench_micro merge gate compare the two.

#include <span>

#include "compress/compressed_grad.h"

namespace lowdiff {

/// Reference left-fold of two-pointer merges (the original implementation).
/// Kept for the bit-exactness tests and the bench_micro baseline column.
CompressedGrad merge_sparse_sum_pairwise(std::span<const CompressedGrad> payloads);

}  // namespace lowdiff
