#include "support/merge_pairwise.h"

#include <algorithm>
#include <vector>

#include "common/error.h"

namespace lowdiff {

namespace {

/// Sorted-coordinate union-sum of two payload coordinate lists.
void merge_two(const std::vector<std::uint32_t>& ia, const std::vector<float>& va,
               const std::vector<std::uint32_t>& ib, const std::vector<float>& vb,
               std::vector<std::uint32_t>& io, std::vector<float>& vo) {
  io.clear();
  vo.clear();
  io.reserve(ia.size() + ib.size());
  vo.reserve(ia.size() + ib.size());
  std::size_t a = 0, b = 0;
  while (a < ia.size() && b < ib.size()) {
    if (ia[a] < ib[b]) {
      io.push_back(ia[a]);
      vo.push_back(va[a]);
      ++a;
    } else if (ib[b] < ia[a]) {
      io.push_back(ib[b]);
      vo.push_back(vb[b]);
      ++b;
    } else {
      io.push_back(ia[a]);
      vo.push_back(va[a] + vb[b]);
      ++a;
      ++b;
    }
  }
  for (; a < ia.size(); ++a) {
    io.push_back(ia[a]);
    vo.push_back(va[a]);
  }
  for (; b < ib.size(); ++b) {
    io.push_back(ib[b]);
    vo.push_back(vb[b]);
  }
}

/// merge_sparse_sum's validation and result header (the prologue in
/// src/compress/merge.cpp), repeated so the reference stands alone.
CompressedGrad merge_prologue(std::span<const CompressedGrad> payloads) {
  LOWDIFF_ENSURE(!payloads.empty(), "cannot merge an empty payload set");
  const std::uint64_t dense_size = payloads.front().dense_size;
  for (const auto& p : payloads) {
    LOWDIFF_ENSURE(p.scheme == CompressionScheme::kTopK ||
                       p.scheme == CompressionScheme::kRandomK,
                   "merge_sparse_sum requires sparse payloads");
    LOWDIFF_ENSURE(p.dense_size == dense_size, "mixed dense sizes in merge");
    LOWDIFF_ENSURE(std::is_sorted(p.indices.begin(), p.indices.end()),
                   "sparse payload coordinates must be sorted");
  }
  CompressedGrad out;
  out.scheme = payloads.front().scheme;
  out.dense_size = dense_size;
  out.iteration = payloads.back().iteration;
  return out;
}

}  // namespace

CompressedGrad merge_sparse_sum_pairwise(std::span<const CompressedGrad> payloads) {
  CompressedGrad out = merge_prologue(payloads);
  out.indices = payloads.front().indices;
  out.values = payloads.front().values;

  // Left fold of sorted two-pointer merges: O(B · total) with contiguous
  // memory.  Superseded by merge_sparse_sum's k-way heap on the hot path;
  // kept as the bit-exactness reference.
  std::vector<std::uint32_t> scratch_idx;
  std::vector<float> scratch_val;
  for (std::size_t p = 1; p < payloads.size(); ++p) {
    merge_two(out.indices, out.values, payloads[p].indices, payloads[p].values,
              scratch_idx, scratch_val);
    out.indices.swap(scratch_idx);
    out.values.swap(scratch_val);
  }
  return out;
}

}  // namespace lowdiff
