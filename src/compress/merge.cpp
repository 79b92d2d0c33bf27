#include "compress/merge.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/error.h"

namespace lowdiff {

std::size_t BatchedGrad::byte_size() const {
  std::size_t total = 2 * sizeof(std::uint64_t);
  for (const auto& m : members) total += m.byte_size();
  return total;
}

std::size_t BatchedGrad::serialized_size() const {
  std::size_t total = 3 * sizeof(std::uint64_t);  // first, last, count
  for (const auto& m : members) {
    total += sizeof(std::uint64_t) + m.serialized_size();  // length prefix
  }
  return total;
}

std::vector<std::byte> BatchedGrad::serialize() const {
  std::vector<std::byte> out(serialized_size());
  const std::size_t written = serialize_into(out);
  LOWDIFF_ENSURE(written == out.size(), "batch serialized_size mismatch");
  return out;
}

std::size_t BatchedGrad::serialize_into(std::span<std::byte> out) const {
  LOWDIFF_ENSURE(out.size() >= serialized_size(),
                 "serialize_into buffer too small");
  std::size_t pos = 0;
  auto put_u64 = [&out, &pos](std::uint64_t v) {
    std::memcpy(out.data() + pos, &v, sizeof(v));
    pos += sizeof(v);
  };
  put_u64(first_iteration);
  put_u64(last_iteration);
  put_u64(members.size());
  for (const auto& m : members) {
    const std::size_t len = m.serialized_size();
    put_u64(len);
    pos += m.serialize_into(out.subspan(pos, len));
  }
  return pos;
}

BatchedGrad BatchedGrad::deserialize(std::span<const std::byte> bytes) {
  std::size_t pos = 0;
  auto read_u64 = [&bytes, &pos]() {
    LOWDIFF_ENSURE(pos + sizeof(std::uint64_t) <= bytes.size(), "truncated batch");
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  };
  BatchedGrad out;
  out.first_iteration = read_u64();
  out.last_iteration = read_u64();
  const std::uint64_t count = read_u64();
  // Every member has at least its length prefix, which bounds the count
  // before it sizes an allocation.
  LOWDIFF_ENSURE(count <= (bytes.size() - pos) / sizeof(std::uint64_t),
                 "batch member count exceeds its bytes");
  out.members.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t len = read_u64();
    LOWDIFF_ENSURE(len <= bytes.size() - pos, "truncated batch member");
    out.members.push_back(CompressedGrad::deserialize(bytes.subspan(pos, len)));
    pos += len;
  }
  LOWDIFF_ENSURE(pos == bytes.size(), "trailing bytes after batch");
  return out;
}

namespace {

/// Validation + result header shared by merge_sparse_sum's two paths.
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

/// Dense-accumulator union-sum, cache-blocked: the coordinate space is
/// walked in windows small enough that the accumulator and seen-mark
/// arrays stay L2-resident, so every scatter write is a cache hit; each
/// window is emitted (ascending) before the next begins.  Scratch memory
/// is a constant ~320 KiB regardless of dense_size.  O(total + dense_size)
/// total work, all of it linear or cache-local.
///
/// Bit-exactness: payloads scatter in payload order within each window,
/// so for every coordinate the additions happen in exactly the pairwise
/// cascade's left-fold order.  The first touch *assigns* (rather than
/// adding to 0.0f) so single-payload coordinates keep their sign bit
/// (-0.0f would otherwise flip to +0.0f).
void merge_dense_accumulate(std::span<const CompressedGrad> payloads,
                            CompressedGrad& out) {
  constexpr std::uint64_t kWindow = std::uint64_t{1} << 16;  // 256K acc + 64K seen
  const std::uint64_t n = out.dense_size;
  std::vector<float> acc(kWindow);
  std::vector<std::uint8_t> seen(kWindow);
  std::vector<std::size_t> cur(payloads.size(), 0);

  for (std::uint64_t base = 0; base < n; base += kWindow) {
    const std::uint64_t end = std::min(n, base + kWindow);
    std::fill(seen.begin(), seen.begin() + static_cast<std::ptrdiff_t>(end - base), 0);
    std::size_t touched = 0;
    for (std::size_t p = 0; p < payloads.size(); ++p) {
      const auto& idx = payloads[p].indices;
      const auto& val = payloads[p].values;
      std::size_t i = cur[p];
      for (; i < idx.size() && idx[i] < end; ++i) {
        const auto local = static_cast<std::size_t>(idx[i] - base);
        if (seen[local] == 0) {
          seen[local] = 1;
          ++touched;
          acc[local] = val[i];
        } else {
          acc[local] += val[i];
        }
      }
      cur[p] = i;
    }
    if (touched == 0) continue;
    for (std::size_t local = 0; local < end - base; ++local) {
      if (seen[local] != 0) {
        out.indices.push_back(static_cast<std::uint32_t>(base + local));
        out.values.push_back(acc[local]);
      }
    }
  }
}

}  // namespace

CompressedGrad merge_sparse_sum(std::span<const CompressedGrad> payloads) {
  CompressedGrad out = merge_prologue(payloads);
  const std::size_t b_count = payloads.size();

  std::size_t total = 0;
  for (const auto& p : payloads) total += p.indices.size();

  // Batched checkpoints (B sparse payloads over one model) are dense in
  // aggregate; scatter-accumulate beats any comparison-based merge there.
  // The heap below handles the genuinely sparse regime, where scanning
  // dense_size would dominate the small entry count.
  if (out.dense_size <= 16 * total) {
    out.indices.reserve(total);
    out.values.reserve(total);
    merge_dense_accumulate(payloads, out);
    return out;
  }
  out.indices.reserve(total);
  out.values.reserve(total);

  // K-way heap union-sum: heap keys pack (coordinate << 32) | payload_id,
  // so the min key is the smallest coordinate and, among equal coordinates,
  // the smallest payload id.  Duplicates therefore pop in payload order and
  // the float accumulation below is the same left fold the pairwise cascade
  // performs — bit-identical sums, at O(total · log B) instead of
  // O(total · B).
  std::vector<std::size_t> cursor(b_count, 0);
  auto key_of = [&](std::size_t p) {
    return (static_cast<std::uint64_t>(payloads[p].indices[cursor[p]]) << 32) |
           static_cast<std::uint64_t>(p);
  };

  std::vector<std::uint64_t> heap;
  heap.reserve(b_count);
  for (std::size_t p = 0; p < b_count; ++p) {
    if (!payloads[p].indices.empty()) heap.push_back(key_of(p));
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<std::uint64_t>());

  auto sift_down = [&heap] {
    std::size_t i = 0;
    const std::size_t n = heap.size();
    const std::uint64_t v = heap[0];
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap[child + 1] < heap[child]) ++child;
      if (heap[child] >= v) break;
      heap[i] = heap[child];
      i = child;
    }
    heap[i] = v;
  };

  // Pops the top, advances its payload's cursor, refills from that payload
  // (replace-top: one sift instead of pop+push).  Returns the payload id.
  auto advance_top = [&]() -> std::size_t {
    const std::size_t p = static_cast<std::size_t>(heap[0] & 0xFFFFFFFFull);
    ++cursor[p];
    if (cursor[p] < payloads[p].indices.size()) {
      heap[0] = key_of(p);
    } else {
      heap[0] = heap.back();
      heap.pop_back();
    }
    if (!heap.empty()) sift_down();
    return p;
  };

  while (!heap.empty()) {
    const auto coord = static_cast<std::uint32_t>(heap[0] >> 32);
    std::size_t p = advance_top();
    float acc = payloads[p].values[cursor[p] - 1];
    while (!heap.empty() && static_cast<std::uint32_t>(heap[0] >> 32) == coord) {
      p = advance_top();
      acc += payloads[p].values[cursor[p] - 1];
    }
    out.indices.push_back(coord);
    out.values.push_back(acc);
  }
  return out;
}

}  // namespace lowdiff
