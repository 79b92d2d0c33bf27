#include <gtest/gtest.h>

#include "common/rng.h"
#include "compress/topk.h"
#include "core/checkpoint_store.h"
#include "storage/mem_storage.h"
#include "tensor/ops.h"

namespace lowdiff {
namespace {

ModelSpec small_spec() {
  ModelSpec spec;
  spec.name = "s";
  spec.layers = {{"w", {10, 4}}, {"b", {10}}};
  return spec;
}

CompressedGrad make_diff(std::uint64_t iter, std::uint64_t seed = 1) {
  Tensor g(50);
  Xoshiro256 rng(seed + iter);
  ops::fill_normal(g.span(), rng, 1.0f);
  return TopKCompressor(0.2).compress(g.cspan(), iter);
}

class StoreTest : public ::testing::Test {
 protected:
  std::shared_ptr<MemStorage> mem_ = std::make_shared<MemStorage>();
  CheckpointStore store_{mem_};
};

TEST_F(StoreTest, KeysAreLexicographicallyChronological) {
  EXPECT_LT(CheckpointStore::full_key(9), CheckpointStore::full_key(10));
  EXPECT_LT(CheckpointStore::diff_key(99), CheckpointStore::diff_key(100));
  EXPECT_LT(CheckpointStore::batch_key(1, 3), CheckpointStore::batch_key(4, 6));
}

TEST_F(StoreTest, LatestFullTracksWrites) {
  EXPECT_FALSE(store_.latest_full().has_value());
  ModelState state(small_spec());
  state.init_random(1);
  store_.put_full(10, state);
  store_.put_full(30, state);
  store_.put_full(20, state);
  EXPECT_EQ(store_.latest_full(), 30u);
}

TEST_F(StoreTest, FullRoundTripBitExact) {
  ModelState state(small_spec());
  state.init_random(2);
  state.set_step(17);
  store_.put_full(16, state);
  const auto back = store_.read_full(16, small_spec());
  EXPECT_TRUE(state.bit_equal(back));
  EXPECT_THROW(store_.read_full(17, small_spec()), Error);
}

TEST_F(StoreTest, DiffsAfterCollectsStandaloneAndBatched) {
  store_.put_diff(make_diff(5));
  store_.put_diff(make_diff(6));
  BatchedGrad batch;
  batch.first_iteration = 7;
  batch.last_iteration = 9;
  for (std::uint64_t i = 7; i <= 9; ++i) batch.members.push_back(make_diff(i));
  store_.put_batch(batch);

  // One record each, in iteration order (`batch/` sorts before `diff/` as
  // a key, not as a record).
  using Record = CheckpointStore::DiffRecord;
  EXPECT_EQ(store_.manifest().diffs,
            (std::vector<Record>{{5, 5, CheckpointStore::diff_key(5)},
                                 {6, 6, CheckpointStore::diff_key(6)},
                                 {7, 9, CheckpointStore::batch_key(7, 9)}}));
  EXPECT_EQ(store_.diffs_after(4),
            (std::vector<std::uint64_t>{5, 6, 7, 8, 9}));
  EXPECT_EQ(store_.diffs_after(6), (std::vector<std::uint64_t>{7, 8, 9}));
  EXPECT_EQ(store_.diffs_after(8), (std::vector<std::uint64_t>{9}));
  EXPECT_TRUE(store_.diffs_after(9).empty());
}

TEST_F(StoreTest, ReadDiffFromStandaloneAndBatch) {
  const auto d5 = make_diff(5);
  store_.put_diff(d5);
  BatchedGrad batch;
  batch.first_iteration = 6;
  batch.last_iteration = 7;
  batch.members = {make_diff(6), make_diff(7)};
  store_.put_batch(batch);

  const auto records = store_.manifest().diffs;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(*store_.try_read_diffs(records[0]), std::vector<CompressedGrad>{d5});
  EXPECT_EQ(*store_.try_read_diffs(records[1]), batch.members);
  EXPECT_EQ(store_.try_read_diffs({8, 8, CheckpointStore::diff_key(8)})
                .status()
                .code(),
            ErrorCode::kNotFound);
}

TEST_F(StoreTest, PruneRemovesObsolete) {
  ModelState state(small_spec());
  state.init_random(3);
  store_.put_full(10, state);
  store_.put_diff(make_diff(11));
  store_.put_diff(make_diff(12));
  store_.put_full(20, state);
  BatchedGrad batch;
  batch.first_iteration = 18;
  batch.last_iteration = 20;
  batch.members = {make_diff(18), make_diff(19), make_diff(20)};
  store_.put_batch(batch);
  store_.put_diff(make_diff(21));

  store_.prune_before(20);
  EXPECT_EQ(store_.latest_full(), 20u);
  EXPECT_FALSE(mem_->exists(CheckpointStore::full_key(10)));
  EXPECT_FALSE(mem_->exists(CheckpointStore::diff_key(11)));
  EXPECT_FALSE(mem_->exists(CheckpointStore::batch_key(18, 20)));
  EXPECT_TRUE(mem_->exists(CheckpointStore::diff_key(21)));
  EXPECT_EQ(store_.diffs_after(20), (std::vector<std::uint64_t>{21}));
}

TEST_F(StoreTest, UsageSplitsFullAndDiffBytes) {
  ModelState state(small_spec());
  state.init_random(4);
  store_.put_full(0, state);
  store_.put_diff(make_diff(1));
  BatchedGrad batch;
  batch.first_iteration = 2;
  batch.last_iteration = 3;
  batch.members = {make_diff(2), make_diff(3)};
  store_.put_batch(batch);

  const auto usage = store_.usage();
  EXPECT_EQ(usage.full_count, 1u);
  EXPECT_EQ(usage.diff_count, 3u);
  EXPECT_GT(usage.full_bytes, state.byte_size());
  EXPECT_GT(usage.diff_bytes, 0u);
  EXPECT_LT(usage.diff_bytes, usage.full_bytes);
}

TEST_F(StoreTest, ShardedFullRoundTripBitExact) {
  ModelState state(small_spec());
  state.init_random(7);
  state.set_step(9);
  const std::uint32_t world = 4;
  for (std::uint32_t r = 0; r < world; ++r) {
    store_.put_full_shard(8, r, world, state);
  }
  EXPECT_EQ(store_.latest_full(), 8u);
  const auto back = store_.read_full(8, small_spec());
  EXPECT_TRUE(state.bit_equal(back));
}

TEST_F(StoreTest, IncompleteShardSetIsInvisible) {
  ModelState state(small_spec());
  state.init_random(7);
  store_.put_full(3, state);
  // Only 2 of 3 shards arrive (crash mid-save).
  store_.put_full_shard(10, 0, 3, state);
  store_.put_full_shard(10, 2, 3, state);
  EXPECT_EQ(store_.latest_full(), 3u);  // torn save never becomes "latest"
  EXPECT_EQ(store_.manifest().fulls, (std::vector<std::uint64_t>{3}));
  store_.put_full_shard(10, 1, 3, state);
  EXPECT_EQ(store_.latest_full(), 10u);
  EXPECT_EQ(store_.manifest().fulls, (std::vector<std::uint64_t>{3, 10}));
}

TEST_F(StoreTest, ShardedUnbalancedWorldSizes) {
  // param_count = 50; world = 7 does not divide it evenly.
  ModelState state(small_spec());
  state.init_random(11);
  for (std::uint32_t r = 0; r < 7; ++r) store_.put_full_shard(1, r, 7, state);
  EXPECT_TRUE(store_.read_full(1, small_spec()).bit_equal(state));
}

TEST_F(StoreTest, ShardCoordinateValidation) {
  ModelState state(small_spec());
  EXPECT_THROW(store_.put_full_shard(0, 3, 3, state), Error);
  EXPECT_THROW(store_.put_full_shard(0, 0, 0, state), Error);
}

TEST_F(StoreTest, PruneRemovesOldShards) {
  ModelState state(small_spec());
  state.init_random(2);
  for (std::uint32_t r = 0; r < 2; ++r) store_.put_full_shard(5, r, 2, state);
  store_.put_full(9, state);
  store_.prune_before(9);
  EXPECT_EQ(store_.manifest().fulls, (std::vector<std::uint64_t>{9}));
  EXPECT_EQ(store_.latest_full(), 9u);
}

TEST_F(StoreTest, ShardedRecoveryWithDiffs) {
  // A sharded full checkpoint composes with differentials exactly like a
  // monolithic one.
  ModelState state(small_spec());
  state.init_random(4);
  for (std::uint32_t r = 0; r < 3; ++r) store_.put_full_shard(6, r, 3, state);
  store_.put_diff(make_diff(7));
  store_.put_diff(make_diff(8));
  EXPECT_EQ(store_.diffs_after(*store_.latest_full()),
            (std::vector<std::uint64_t>{7, 8}));
}

TEST_F(StoreTest, IgnoresForeignKeys) {
  mem_->write("unrelated/key", std::vector<std::byte>(4));
  EXPECT_FALSE(store_.latest_full().has_value());
  EXPECT_TRUE(store_.manifest().diffs.empty());
  EXPECT_TRUE(store_.diffs_after(0).empty());
}

}  // namespace
}  // namespace lowdiff
