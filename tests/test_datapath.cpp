/// \file test_datapath.cpp
/// The zero-copy checkpoint datapath's correctness contract: TopK selects
/// exactly the reference selection's set on every shape and tie pattern,
/// one compressor is safe to call from every rank at once, the k-way merge
/// reproduces the pairwise reference byte for byte, pooled serialization
/// emits the exact stream the vector forms do, and BufferPool/ByteBuffer
/// obey their lifetime and aliasing rules.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "common/rng.h"
#include "compress/merge.h"
#include "compress/quant8.h"
#include "compress/topk.h"
#include "model/model_state.h"
#include "storage/async_writer.h"
#include "storage/mem_storage.h"
#include "storage/serializer.h"
#include "support/merge_pairwise.h"
#include "support/topk_reference.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace lowdiff {
namespace {

Tensor random_tensor(std::size_t n, std::uint64_t seed) {
  Tensor t(n);
  Xoshiro256 rng(seed);
  ops::fill_normal(t.span(), rng, 1.0f);
  return t;
}

/// Many repeated magnitudes, -0.0 among them — the adversarial case for
/// top-k selection, where the index tie-break decides the winning set.
Tensor tie_heavy_tensor(std::size_t n, std::uint64_t seed) {
  static constexpr float kLevels[] = {0.0f, -0.0f, 0.5f, -0.5f, 1.0f, -1.0f, 2.0f};
  Tensor t(n);
  Xoshiro256 rng(seed);
  auto s = t.span();
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = kLevels[rng.uniform_below(std::size(kLevels))];
  }
  return t;
}

/// Normal values scaled by 2^-130: every |v| < 16 becomes subnormal (below
/// 2^-126), and the lost precision makes many magnitudes equal.
Tensor subnormal_tensor(std::size_t n, std::uint64_t seed) {
  Tensor t = random_tensor(n, seed);
  for (float& v : t.span()) v = std::ldexp(v, -130);
  return t;
}

/// Normal values with about one in 64 replaced by +inf or -inf: at ρ = 0.01
/// every winner is infinite and ties by index, at larger ρ the threshold
/// falls among the finite values.
Tensor infinite_tensor(std::size_t n, std::uint64_t seed) {
  Tensor t = random_tensor(n, seed);
  Xoshiro256 rng(seed + 1000);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (float& v : t.span()) {
    if (rng.uniform_below(64) == 0) v = rng.uniform_below(2) == 0 ? kInf : -kInf;
  }
  return t;
}

/// The fixed shapes, then one n on each side of every step of the
/// histogram's size (powers of two from 2^10 to 2^16).
std::vector<std::size_t> topk_sizes() {
  std::vector<std::size_t> sizes = {1, 2, 7, 4096, 4097, 100752, 131073};
  for (std::size_t m = 10; m <= 16; ++m) {
    sizes.push_back((std::size_t{1} << m) - 1);
    sizes.push_back(std::size_t{1} << m);
  }
  return sizes;
}

void expect_topk_matches_reference(Tensor (*make)(std::size_t, std::uint64_t),
                                   const char* input) {
  for (const double rho : {0.01, 0.05, 1.0}) {
    const TopKCompressor comp(rho);
    for (const std::size_t n : topk_sizes()) {
      const auto grad = make(n, n + 7);
      const auto expected = reference_topk(grad.cspan(), comp.k_for(n), 3);
      const auto actual = comp.compress(grad.cspan(), 3);
      ASSERT_EQ(actual.indices, expected.indices)
          << input << " n=" << n << " rho=" << rho;
      EXPECT_EQ(actual.serialize(), expected.serialize())
          << input << " n=" << n << " rho=" << rho;
    }
  }
}

TEST(ParallelCompress, TopKMatchesReference) {
  expect_topk_matches_reference(random_tensor, "normal");
  expect_topk_matches_reference(subnormal_tensor, "subnormal");
  expect_topk_matches_reference(infinite_tensor, "infinite");
}

TEST(ParallelCompress, TopKTieHeavyInputIsDeterministic) {
  // With thousands of equal magnitudes the selected set is decided purely
  // by the index tie-break, and -0.0 must tie +0.0.
  expect_topk_matches_reference(tie_heavy_tensor, "tie-heavy");
}

TEST(ParallelCompress, ConcurrentCompressIsSafe) {
  // One compressor shared across caller threads, as the trainer's ranks
  // share it.  TSan target.
  const TopKCompressor comp(0.01);
  const auto grad = random_tensor(131073, 3);
  const auto expected = reference_topk(grad.cspan(), comp.k_for(grad.size()), 0);
  std::vector<std::thread> callers;
  std::vector<int> ok(4, 0);
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        if (!(comp.compress(grad.cspan(), 0) == expected)) return;
      }
      ok[static_cast<std::size_t>(t)] = 1;
    });
  }
  for (auto& c : callers) c.join();
  for (int v : ok) EXPECT_EQ(v, 1);
}

// --- K-way merge ----------------------------------------------------------

std::vector<CompressedGrad> random_batch(std::size_t count, std::size_t n,
                                         std::uint64_t seed) {
  TopKCompressor comp(0.02);
  std::vector<CompressedGrad> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(comp.compress(random_tensor(n, seed + i).cspan(), i));
  }
  return out;
}

CompressedGrad sparse_payload(std::uint64_t dense_size,
                              std::vector<std::uint32_t> indices,
                              std::vector<float> values,
                              std::uint64_t iteration) {
  CompressedGrad g;
  g.scheme = CompressionScheme::kTopK;
  g.dense_size = dense_size;
  g.iteration = iteration;
  g.indices = std::move(indices);
  g.values = std::move(values);
  return g;
}

TEST(KWayMerge, MatchesPairwiseOnRandomBatches) {
  for (std::size_t count : {1u, 2u, 3u, 8u, 32u}) {
    const auto payloads = random_batch(count, 1 << 14, 100 + count);
    const auto kway = merge_sparse_sum(payloads);
    const auto pairwise = merge_sparse_sum_pairwise(payloads);
    EXPECT_EQ(kway, pairwise) << "B=" << count;
    EXPECT_EQ(kway.serialize(), pairwise.serialize()) << "B=" << count;
  }
}

TEST(KWayMerge, DisjointOverlappingAndEmptyMembers) {
  const std::uint64_t n = 100;
  const std::vector<CompressedGrad> cases[] = {
      // fully disjoint
      {sparse_payload(n, {0, 10, 20}, {1.0f, 2.0f, 3.0f}, 0),
       sparse_payload(n, {5, 15, 25}, {4.0f, 5.0f, 6.0f}, 1)},
      // fully overlapping: float sum order must match the pairwise fold
      {sparse_payload(n, {1, 2, 3}, {0.1f, 0.2f, 0.3f}, 0),
       sparse_payload(n, {1, 2, 3}, {0.7f, 0.8f, 0.9f}, 1),
       sparse_payload(n, {1, 2, 3}, {1e-8f, -0.8f, 10.0f}, 2)},
      // empty members interleaved
      {sparse_payload(n, {}, {}, 0),
       sparse_payload(n, {7}, {1.5f}, 1),
       sparse_payload(n, {}, {}, 2)},
      // single member
      {sparse_payload(n, {3, 9}, {-1.0f, 2.0f}, 5)},
      // negative zero must survive a single-payload coordinate
      {sparse_payload(n, {1, 2}, {-0.0f, 1.0f}, 0),
       sparse_payload(n, {2}, {2.0f}, 1)},
  };
  for (const auto& payloads : cases) {
    const auto kway = merge_sparse_sum(payloads);
    const auto pairwise = merge_sparse_sum_pairwise(payloads);
    EXPECT_EQ(kway, pairwise);
    EXPECT_EQ(kway.iteration, payloads.back().iteration);
  }
}

TEST(KWayMerge, SparseRegimeUsesHeapAndStillMatches) {
  // A huge dense_size with a handful of entries routes around the dense
  // accumulator; the heap path must agree with the reference too.
  const std::uint64_t n = (std::uint64_t{1} << 26) + 1;
  const std::vector<CompressedGrad> payloads = {
      sparse_payload(n, {0, 1000000, 50000000}, {1.0f, 2.0f, 3.0f}, 0),
      sparse_payload(n, {1000000, 2000000}, {0.5f, -4.0f}, 1),
      sparse_payload(n, {0, 67108864}, {7.0f, 8.0f}, 2),
  };
  EXPECT_EQ(merge_sparse_sum(payloads), merge_sparse_sum_pairwise(payloads));
}

// --- Zero-copy serialization ----------------------------------------------

TEST(SerializeInto, MatchesSerializeExactly) {
  const auto grad = random_tensor(1 << 12, 9);
  Quant8Compressor q8;
  TopKCompressor topk(0.05);
  for (const CompressedGrad& g : {topk.compress(grad.cspan(), 3),
                                  q8.compress(grad.cspan(), 4)}) {
    const auto reference = g.serialize();
    ASSERT_EQ(reference.size(), g.serialized_size());
    std::vector<std::byte> buf(g.serialized_size());
    EXPECT_EQ(g.serialize_into(buf), buf.size());
    EXPECT_EQ(buf, reference);
  }

  BatchedGrad batch;
  batch.members = random_batch(5, 1 << 12, 50);
  batch.first_iteration = 0;
  batch.last_iteration = 4;
  const auto reference = batch.serialize();
  ASSERT_EQ(reference.size(), batch.serialized_size());
  std::vector<std::byte> buf(batch.serialized_size());
  EXPECT_EQ(batch.serialize_into(buf), buf.size());
  EXPECT_EQ(buf, reference);
  EXPECT_EQ(BatchedGrad::deserialize(buf).serialize(), reference);
}

TEST(PooledSerializers, ByteIdenticalToVectorForms) {
  ModelSpec spec{"t", {{"w", {777}}, {"b", {33}}}};
  ModelState state(spec);
  state.init_random(13);
  TopKCompressor comp(0.05);
  const auto diff = comp.compress(random_tensor(810, 2).cspan(), 8);
  BatchedGrad batch;
  batch.members = random_batch(4, 1 << 12, 60);
  batch.first_iteration = 0;
  batch.last_iteration = 3;

  BufferPool pool;
  const auto full = serialize_model_state(state, pool);
  EXPECT_EQ(std::vector<std::byte>(full.cspan().begin(), full.cspan().end()),
            serialize_model_state(state));
  const auto d = serialize_diff(diff, pool);
  EXPECT_EQ(std::vector<std::byte>(d.cspan().begin(), d.cspan().end()),
            serialize_diff(diff));
  const auto b = serialize_batch(batch, pool);
  EXPECT_EQ(std::vector<std::byte>(b.cspan().begin(), b.cspan().end()),
            serialize_batch(batch));
  // And the framed records still unframe + roundtrip.
  const Frame f = unframe(b.cspan());
  EXPECT_EQ(f.type, RecordType::kBatchedDiff);
  EXPECT_EQ(BatchedGrad::deserialize(f.payload).serialize(), batch.serialize());
}

TEST(Framing, PrepareFillSealMatchesFrame) {
  std::vector<std::byte> payload(3001);
  Xoshiro256 rng(4);
  for (auto& b : payload) b = static_cast<std::byte>(rng());
  const auto reference = frame(RecordType::kDiffCheckpoint, payload);
  ASSERT_EQ(reference.size(), framed_size(payload.size()));

  std::vector<std::byte> record(framed_size(payload.size()));
  auto region = frame_prepare(record, RecordType::kDiffCheckpoint);
  ASSERT_EQ(region.size(), payload.size());
  std::memcpy(region.data(), payload.data(), payload.size());
  frame_seal(record);
  EXPECT_EQ(record, reference);
}

// --- BufferPool / ByteBuffer ----------------------------------------------

TEST(BufferPool, ReusesReturnedBuffers) {
  BufferPool pool;
  const std::byte* first = nullptr;
  {
    auto buf = pool.acquire(10000);
    EXPECT_GE(buf.capacity(), 10000u);
    EXPECT_EQ(buf.size(), 10000u);
    first = buf.data();
  }  // returned to the free list
  {
    // Smaller request, same rounded capacity class: must hit the cache.
    auto buf = pool.acquire(9000);
    EXPECT_EQ(buf.data(), first);
    EXPECT_EQ(buf.size(), 9000u);
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.allocs, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(BufferPool, EnforcesCacheLimits) {
  BufferPool::Options opts;
  opts.max_cached_buffers = 2;
  BufferPool pool(opts);
  {
    auto a = pool.acquire(100);
    auto b = pool.acquire(100);
    auto c = pool.acquire(100);
  }  // three returns, capacity for two
  auto stats = pool.stats();
  EXPECT_EQ(stats.cached_buffers, 2u);
  EXPECT_EQ(stats.dropped, 1u);
  pool.trim();
  stats = pool.stats();
  EXPECT_EQ(stats.cached_buffers, 0u);
  EXPECT_EQ(stats.cached_bytes, 0u);
}

TEST(BufferPool, ConcurrentAcquireRelease) {
  BufferPool pool;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(t));
      for (int i = 0; i < 200; ++i) {
        auto buf = pool.acquire(512 + rng.uniform_below(8192));
        buf.span()[0] = std::byte{0xFF};  // touch the lease
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pool.stats().acquires, 800u);
}

TEST(PooledBuffer, MoveTransfersLease) {
  BufferPool pool;
  auto a = pool.acquire(64);
  const std::byte* ptr = a.data();
  PooledBuffer b = std::move(a);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b.size(), 64u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): asserting reset
  b.reset();
  EXPECT_TRUE(b.empty());
  // The reset returned the allocation: next acquire hits.
  auto c = pool.acquire(64);
  EXPECT_EQ(c.data(), ptr);
}

TEST(ByteBuffer, CopiesAliasTheSameBytes) {
  std::vector<std::byte> vec(256, std::byte{0x42});
  const ByteBuffer from_vec(std::move(vec));
  const ByteBuffer copy = from_vec;
  EXPECT_EQ(copy.data(), from_vec.data());
  EXPECT_EQ(copy.size(), 256u);

  BufferPool pool;
  auto leased = pool.acquire(128);
  const std::byte* ptr = leased.data();
  const ByteBuffer from_pool(std::move(leased));
  const ByteBuffer pool_copy = from_pool;
  EXPECT_EQ(from_pool.data(), ptr);
  EXPECT_EQ(pool_copy.data(), ptr);
}

TEST(ByteBuffer, ReleasesPooledBufferWhenLastCopyDies) {
  BufferPool pool;
  const std::byte* ptr = nullptr;
  {
    auto leased = pool.acquire(4096);
    ptr = leased.data();
    const ByteBuffer shared(std::move(leased));
    const ByteBuffer copy = shared;
  }  // last owner gone -> lease returns to the pool
  auto again = pool.acquire(4096);
  EXPECT_EQ(again.data(), ptr);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(AsyncWriterDatapath, WritesPooledBuffersWithoutCopy) {
  auto mem = std::make_shared<MemStorage>();
  BufferPool pool;
  {
    AsyncWriter writer(mem);
    auto buf = pool.acquire(1000);
    Xoshiro256 rng(77);
    for (auto& b : buf.span()) b = static_cast<std::byte>(rng());
    std::vector<std::byte> expected(buf.cspan().begin(), buf.cspan().end());
    const ByteBuffer shared(std::move(buf));
    // Same bytes fanned out to two keys, one allocation.
    EXPECT_TRUE(writer.submit("a", shared));
    EXPECT_TRUE(writer.submit("b", shared));
    writer.flush();
    for (const char* key : {"a", "b"}) {
      auto read = mem->read(key);
      ASSERT_TRUE(read.ok());
      EXPECT_EQ(*read, expected);
    }
  }
}

}  // namespace
}  // namespace lowdiff
