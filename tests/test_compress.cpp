#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "compress/compressed_grad.h"
#include "compress/dense.h"
#include "compress/error_feedback.h"
#include "compress/merge.h"
#include "compress/quant8.h"
#include "compress/randomk.h"
#include "compress/topk.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace lowdiff {
namespace {

Tensor random_grad(std::size_t n, std::uint64_t seed) {
  Tensor t(n);
  Xoshiro256 rng(seed);
  ops::fill_normal(t.span(), rng, 1.0f);
  return t;
}

// --- TopK --------------------------------------------------------------------

TEST(TopK, KeepsExactlyTheLargestMagnitudes) {
  auto g = Tensor::from_values({0.1f, -5.0f, 0.2f, 4.0f, -0.3f, 3.0f});
  TopKCompressor comp(0.5);  // k = 3
  const auto payload = comp.compress(g.cspan(), 0);
  ASSERT_EQ(payload.indices.size(), 3u);
  EXPECT_EQ(payload.indices[0], 1u);
  EXPECT_EQ(payload.indices[1], 3u);
  EXPECT_EQ(payload.indices[2], 5u);
  EXPECT_FLOAT_EQ(payload.values[0], -5.0f);
  EXPECT_FLOAT_EQ(payload.values[1], 4.0f);
  EXPECT_FLOAT_EQ(payload.values[2], 3.0f);
}

TEST(TopK, DecompressRestoresKeptZerosElsewhere) {
  auto g = random_grad(1000, 1);
  TopKCompressor comp(0.01);
  const auto payload = comp.compress(g.cspan(), 7);
  EXPECT_EQ(payload.iteration, 7u);
  Tensor out(1000);
  comp.decompress(payload, out.span());
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] != 0.0f) {
      ++nonzero;
      EXPECT_EQ(out[i], g[i]);
    }
  }
  EXPECT_EQ(nonzero, comp.k_for(1000));
}

TEST(TopK, DeterministicTieBreak) {
  auto g = Tensor::from_values({1.0f, 1.0f, 1.0f, 1.0f});
  TopKCompressor comp(0.5);
  const auto p1 = comp.compress(g.cspan(), 0);
  const auto p2 = comp.compress(g.cspan(), 0);
  EXPECT_EQ(p1, p2);
  ASSERT_EQ(p1.indices.size(), 2u);
  EXPECT_EQ(p1.indices[0], 0u);  // lower index wins ties
  EXPECT_EQ(p1.indices[1], 1u);
}

TEST(TopK, AtLeastOneElementKept) {
  auto g = random_grad(100, 3);
  TopKCompressor comp(0.001);  // 0.1 of an element -> clamped to 1
  EXPECT_EQ(comp.k_for(100), 1u);
  const auto payload = comp.compress(g.cspan(), 0);
  EXPECT_EQ(payload.indices.size(), 1u);
}

TEST(TopK, RejectsBadRatio) {
  EXPECT_THROW(TopKCompressor(0.0), Error);
  EXPECT_THROW(TopKCompressor(1.5), Error);
}

class TopKRatios : public ::testing::TestWithParam<double> {};

TEST_P(TopKRatios, PayloadSizeTracksRho) {
  const double rho = GetParam();
  const std::size_t n = 50'000;
  auto g = random_grad(n, 5);
  TopKCompressor comp(rho);
  const auto payload = comp.compress(g.cspan(), 0);
  // Wire size ~ 8 bytes per kept element (index + value) + header.
  const double expected = 8.0 * rho * static_cast<double>(n);
  EXPECT_NEAR(static_cast<double>(payload.byte_size()), expected,
              expected * 0.05 + 64);
}

INSTANTIATE_TEST_SUITE_P(RhoSweep, TopKRatios,
                         ::testing::Values(0.001, 0.01, 0.05, 0.1));

// --- RandomK ------------------------------------------------------------------

TEST(RandomK, SameIterationSameCoordinatesAcrossInstances) {
  // Two workers with the same seed must select identical coordinates or
  // the sparse allreduce sums mismatched entries.
  auto g1 = random_grad(500, 1);
  auto g2 = random_grad(500, 2);
  RandomKCompressor a(0.05, 99), b(0.05, 99);
  const auto p1 = a.compress(g1.cspan(), 13);
  const auto p2 = b.compress(g2.cspan(), 13);
  EXPECT_EQ(p1.indices, p2.indices);
  const auto p3 = a.compress(g1.cspan(), 14);
  EXPECT_NE(p1.indices, p3.indices);
}

TEST(RandomK, IndicesDistinctAndSorted) {
  auto g = random_grad(1000, 4);
  RandomKCompressor comp(0.1, 5);
  const auto payload = comp.compress(g.cspan(), 0);
  EXPECT_EQ(payload.indices.size(), 100u);
  EXPECT_TRUE(std::is_sorted(payload.indices.begin(), payload.indices.end()));
  EXPECT_EQ(std::adjacent_find(payload.indices.begin(), payload.indices.end()),
            payload.indices.end());
}

TEST(RandomK, RoundTrip) {
  auto g = random_grad(256, 8);
  RandomKCompressor comp(0.25, 1);
  const auto payload = comp.compress(g.cspan(), 3);
  Tensor out(256);
  comp.decompress(payload, out.span());
  for (std::size_t i = 0; i < payload.indices.size(); ++i) {
    EXPECT_EQ(out[payload.indices[i]], g[payload.indices[i]]);
  }
}

// --- Quant8 -------------------------------------------------------------------

TEST(Quant8, BoundedRelativeBlockError) {
  auto g = random_grad(1024, 9);
  Quant8Compressor comp;
  const auto payload = comp.compress(g.cspan(), 0);
  Tensor out(1024);
  comp.decompress(payload, out.span());
  for (std::size_t b = 0; b < 4; ++b) {
    float block_max = 0.0f;
    for (std::size_t i = b * 256; i < (b + 1) * 256; ++i) {
      block_max = std::max(block_max, std::fabs(g[i]));
    }
    const float tolerance = block_max / 127.0f * 0.51f;
    for (std::size_t i = b * 256; i < (b + 1) * 256; ++i) {
      EXPECT_NEAR(out[i], g[i], tolerance);
    }
  }
}

TEST(Quant8, HandlesZeroBlockAndTail) {
  Tensor g(300);  // one full block + a 44-element tail, all zeros
  Quant8Compressor comp;
  const auto payload = comp.compress(g.cspan(), 0);
  EXPECT_EQ(payload.scales.size(), 2u);
  EXPECT_EQ(payload.codes.size(), 300u);
  Tensor out(300);
  comp.decompress(payload, out.span());
  for (std::size_t i = 0; i < 300; ++i) EXPECT_EQ(out[i], 0.0f);
}

TEST(Quant8, NominalRatioNearQuarter) {
  Quant8Compressor comp;
  EXPECT_NEAR(comp.nominal_ratio(), 0.25, 0.01);
}

// --- Dense --------------------------------------------------------------------

TEST(Dense, ExactRoundTrip) {
  auto g = random_grad(128, 10);
  DenseCompressor comp;
  const auto payload = comp.compress(g.cspan(), 2);
  Tensor out(128);
  comp.decompress(payload, out.span());
  EXPECT_TRUE(ops::bit_equal(g.cspan(), out.cspan()));
  EXPECT_EQ(comp.nominal_ratio(), 1.0);
}

// --- Error feedback -------------------------------------------------------------

TEST(ErrorFeedback, ResidualPlusPayloadEqualsCorrectedGradient) {
  const std::size_t n = 200;
  auto g = random_grad(n, 11);
  ErrorFeedback ef(std::make_unique<TopKCompressor>(0.1), n);
  const auto payload = ef.compress(g.cspan(), 0);
  Tensor decompressed(n);
  TopKCompressor(0.1).decompress(payload, decompressed.span());
  // residual + decompressed == g (first iteration: corrected == g).
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ef.residual()[i] + decompressed[i], g[i], 1e-6f);
  }
}

TEST(ErrorFeedback, EventuallyTransmitsEverything) {
  // A constant gradient: with error feedback the cumulative transmitted
  // mass converges to iteration * gradient even though each payload only
  // carries 10% of the coordinates.
  const std::size_t n = 50;
  Tensor g(n);
  for (std::size_t i = 0; i < n; ++i) g[i] = 1.0f + 0.001f * static_cast<float>(i);
  ErrorFeedback ef(std::make_unique<TopKCompressor>(0.1), n);
  Tensor cumulative(n);
  TopKCompressor ref(0.1);
  const int iters = 60;
  for (int t = 0; t < iters; ++t) {
    const auto payload = ef.compress(g.cspan(), t);
    accumulate_decompressed(ref, payload, cumulative.span());
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(cumulative[i] / iters, g[i], g[i] * 0.25);
  }
}

TEST(ErrorFeedback, ResetClearsResidual) {
  auto g = random_grad(64, 12);
  ErrorFeedback ef(std::make_unique<TopKCompressor>(0.1), 64);
  ef.compress(g.cspan(), 0);
  EXPECT_GT(ops::max_abs(ef.residual()), 0.0f);
  ef.reset();
  EXPECT_EQ(ops::max_abs(ef.residual()), 0.0f);
}

// --- serialization ---------------------------------------------------------------

TEST(CompressedGrad, SerializeRoundTripSparse) {
  auto g = random_grad(512, 13);
  TopKCompressor comp(0.05);
  const auto payload = comp.compress(g.cspan(), 21);
  const auto bytes = payload.serialize();
  const auto back = CompressedGrad::deserialize(bytes);
  EXPECT_EQ(payload, back);
}

TEST(CompressedGrad, SerializeRoundTripQuant) {
  auto g = random_grad(400, 14);
  Quant8Compressor comp;
  const auto payload = comp.compress(g.cspan(), 5);
  const auto back = CompressedGrad::deserialize(payload.serialize());
  EXPECT_EQ(payload, back);
}

TEST(CompressedGrad, TruncatedBytesRejected) {
  auto g = random_grad(100, 15);
  const auto bytes = TopKCompressor(0.1).compress(g.cspan(), 0).serialize();
  const std::span<const std::byte> truncated(bytes.data(), bytes.size() - 3);
  EXPECT_THROW(CompressedGrad::deserialize(truncated), Error);
}

// --- merging / batching ------------------------------------------------------------

TEST(Merge, SparseSumIsIndexUnionWithSummedValues) {
  CompressedGrad a, b;
  a.scheme = b.scheme = CompressionScheme::kTopK;
  a.dense_size = b.dense_size = 10;
  a.iteration = 1;
  b.iteration = 2;
  a.indices = {1, 4, 7};
  a.values = {1.0f, 2.0f, 3.0f};
  b.indices = {4, 9};
  b.values = {10.0f, 20.0f};

  const CompressedGrad payloads[] = {a, b};
  const auto merged = merge_sparse_sum(payloads);
  EXPECT_EQ(merged.iteration, 2u);
  ASSERT_EQ(merged.indices.size(), 4u);
  EXPECT_EQ(merged.indices, (std::vector<std::uint32_t>{1, 4, 7, 9}));
  EXPECT_EQ(merged.values, (std::vector<float>{1.0f, 12.0f, 3.0f, 20.0f}));
}

TEST(Merge, RejectsMixedDenseSizesAndEmpty) {
  CompressedGrad a, b;
  a.scheme = b.scheme = CompressionScheme::kTopK;
  a.dense_size = 10;
  b.dense_size = 11;
  const CompressedGrad payloads[] = {a, b};
  EXPECT_THROW(merge_sparse_sum(payloads), Error);
  EXPECT_THROW(merge_sparse_sum(std::span<const CompressedGrad>()), Error);
}

TEST(Merge, SumEqualsDenseSum) {
  const std::size_t n = 300;
  TopKCompressor comp(0.1);
  std::vector<CompressedGrad> payloads;
  Tensor dense_sum(n);
  for (int i = 0; i < 5; ++i) {
    auto g = random_grad(n, 100 + i);
    payloads.push_back(comp.compress(g.cspan(), i));
    accumulate_decompressed(comp, payloads.back(), dense_sum.span());
  }
  const auto merged = merge_sparse_sum(payloads);
  Tensor merged_dense(n);
  comp.decompress(merged, merged_dense.span());
  EXPECT_LT(ops::max_abs_diff(dense_sum.cspan(), merged_dense.cspan()), 1e-5f);
}

TEST(BatchedGrad, SerializeRoundTrip) {
  TopKCompressor comp(0.1);
  BatchedGrad batch;
  batch.first_iteration = 10;
  batch.last_iteration = 12;
  for (int i = 0; i < 3; ++i) {
    auto g = random_grad(64, 200 + i);
    batch.members.push_back(comp.compress(g.cspan(), 10 + i));
  }
  const auto back = BatchedGrad::deserialize(batch.serialize());
  EXPECT_EQ(back.first_iteration, 10u);
  EXPECT_EQ(back.last_iteration, 12u);
  ASSERT_EQ(back.members.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(back.members[i], batch.members[i]);
}

// --- Finding 2 -----------------------------------------------------------------------

TEST(Finding2, CompressedGradientIsOneThirdOfCompressedDifferential) {
  // A gradient is Ψ elements; a differential checkpoint is 3Ψ (params +
  // both Adam moments).  Same compressor => ~3x the wire size.
  const std::size_t psi = 30'000;
  TopKCompressor comp(0.01);
  auto grad = random_grad(psi, 42);
  auto diff = random_grad(3 * psi, 43);
  const auto grad_payload = comp.compress(grad.cspan(), 0);
  const auto diff_payload = comp.compress(diff.cspan(), 0);
  const double ratio = static_cast<double>(diff_payload.byte_size()) /
                       static_cast<double>(grad_payload.byte_size());
  EXPECT_NEAR(ratio, 3.0, 0.1);
}

}  // namespace
}  // namespace lowdiff

namespace lowdiff {
namespace {

TEST(CompressedGrad, IndexValueCountMismatchRejected) {
  CompressedGrad g;
  g.scheme = CompressionScheme::kTopK;
  g.dense_size = 10;
  g.indices = {1, 2};
  g.values = {1.0f};  // mismatch
  const auto bytes = g.serialize();
  EXPECT_THROW(CompressedGrad::deserialize(bytes), Error);
}

TEST(CompressedGrad, PayloadsNoCompressorWritesRejected) {
  // Each decodes field by field, but its decompress() would index out of
  // bounds or mistake the scheme.
  CompressedGrad sparse;
  sparse.scheme = CompressionScheme::kRandomK;
  sparse.dense_size = 10;
  sparse.indices = {1, 4, 9};
  sparse.values = {1.0f, 2.0f, 3.0f};
  ASSERT_EQ(CompressedGrad::deserialize(sparse.serialize()), sparse);

  std::vector<CompressedGrad> bad(5, sparse);
  bad[0].indices.back() = 10;  // == dense_size
  bad[1].indices = {1, 4, 4};  // repeated
  bad[2].indices = {4, 1, 9};  // descending
  bad[3].scheme = CompressionScheme::kDense;
  bad[3].indices.clear();      // 3 values for a dense size of 10
  bad[4] = Quant8Compressor().compress(std::vector<float>(300, 1.0f), 0);
  bad[4].scales.pop_back();    // 300 codes need 2 block scales
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW(CompressedGrad::deserialize(bad[i].serialize()), Error) << i;
  }

  auto unknown = sparse.serialize();
  unknown[0] = std::byte{4};  // the scheme byte
  EXPECT_THROW(CompressedGrad::deserialize(unknown), Error);
}

TEST(CompressedGrad, LengthPrefixThatWrapsRejected) {
  // 2^62 four-byte indices: the byte count wraps to 0 in 64 bits.
  auto bytes = CompressedGrad{}.serialize();
  const std::uint64_t huge = std::uint64_t{1} << 62;
  std::memcpy(bytes.data() + 17, &huge, sizeof(huge));  // after scheme, size, iteration
  EXPECT_THROW(CompressedGrad::deserialize(bytes), Error);
}

TEST(BatchedGrad, CountsAndLengthsBeyondItsBytesRejected) {
  BatchedGrad batch;
  batch.first_iteration = batch.last_iteration = 3;
  batch.members.push_back(TopKCompressor(0.5).compress(std::vector<float>{1, 2, 3, 4}, 3));
  const auto good = batch.serialize();
  ASSERT_EQ(BatchedGrad::deserialize(good).members, batch.members);

  // Offsets: first, last, count, then the member's length prefix.
  for (const auto& [offset, value] :
       {std::pair<std::size_t, std::uint64_t>{16, std::uint64_t{1} << 62},
        {24, ~std::uint64_t{0} - 7}}) {
    auto bytes = good;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    EXPECT_THROW(BatchedGrad::deserialize(bytes), Error) << "offset " << offset;
  }
}

TEST(Quant8, ExtremeValuesClampToCodeRange) {
  Tensor g(256);
  g[0] = 1.0e30f;
  g[1] = -1.0e30f;
  g[2] = 1.0f;  // tiny relative to the block max
  Quant8Compressor comp;
  const auto payload = comp.compress(g.cspan(), 0);
  Tensor out(256);
  comp.decompress(payload, out.span());
  EXPECT_GT(out[0], 0.0f);
  EXPECT_LT(out[1], 0.0f);
  EXPECT_EQ(out[2], 0.0f);  // quantized away by the huge block scale
}

TEST(TopK, FullRatioIsLossless) {
  auto make = [] {
    Tensor t(100);
    Xoshiro256 rng(3);
    ops::fill_normal(t.span(), rng, 1.0f);
    return t;
  };
  const auto g = make();
  TopKCompressor comp(1.0);
  Tensor out(100);
  comp.decompress(comp.compress(g.cspan(), 0), out.span());
  EXPECT_TRUE(ops::bit_equal(g.cspan(), out.cspan()));
}

TEST(Merge, SingletonIsIdentity) {
  Tensor g(64);
  Xoshiro256 rng(5);
  ops::fill_normal(g.span(), rng, 1.0f);
  const auto payload = TopKCompressor(0.25).compress(g.cspan(), 4);
  const CompressedGrad one[] = {payload};
  EXPECT_EQ(merge_sparse_sum(one), payload);
}

TEST(Merge, ManyPayloadsMatchDenseSum) {
  // Stress the fold path with 16 payloads.
  const std::size_t n = 400;
  TopKCompressor comp(0.05);
  std::vector<CompressedGrad> payloads;
  Tensor dense_sum(n);
  for (int i = 0; i < 16; ++i) {
    Tensor g(n);
    Xoshiro256 rng(300 + i);
    ops::fill_normal(g.span(), rng, 1.0f);
    payloads.push_back(comp.compress(g.cspan(), i));
    accumulate_decompressed(comp, payloads.back(), dense_sum.span());
  }
  Tensor merged_dense(n);
  comp.decompress(merge_sparse_sum(payloads), merged_dense.span());
  EXPECT_LT(ops::max_abs_diff(dense_sum.cspan(), merged_dense.cspan()), 1e-4f);
}

}  // namespace
}  // namespace lowdiff
