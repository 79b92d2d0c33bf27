#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "common/rng.h"
#include "compress/dense.h"
#include "compress/topk.h"
#include "core/recovery.h"
#include "core/strategies.h"
#include "optim/adam.h"
#include "storage/atomic_commit.h"
#include "storage/mem_storage.h"
#include "storage/throttled.h"
#include "tensor/ops.h"

namespace lowdiff {
namespace {

ModelSpec spec_of(std::size_t n) {
  ModelSpec spec;
  spec.name = "flat";
  spec.layers = {{"w0", {n / 2}}, {"w1", {n - n / 2}}};
  return spec;
}

struct Harness {
  explicit Harness(std::size_t n = 200, std::uint64_t seed = 5)
      : spec(spec_of(n)), state(spec), grad(n), dense(n), rng(seed) {
    state.init_random(seed);
  }

  /// One training iteration with gradient reuse: compress, apply, hand the
  /// payload (and post-update state) to the strategy.
  void step(std::uint64_t iter, CheckpointStrategy& strategy,
            const Compressor& comp) {
    ops::fill_normal(grad.span(), rng, 0.4f);
    auto payload =
        std::make_shared<const CompressedGrad>(comp.compress(grad.cspan(), iter));
    comp.decompress(*payload, dense.span());
    adam.step(state, dense.cspan());
    strategy.after_step(iter, state, std::move(payload));
  }

  ModelSpec spec;
  ModelState state;
  Tensor grad, dense;
  Xoshiro256 rng;
  Adam adam;
};

TEST(TorchSave, WritesFullAtInterval) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  TorchSaveStrategy strategy(store, 5);
  Harness h;
  TopKCompressor comp(0.1);
  for (std::uint64_t t = 0; t < 12; ++t) h.step(t, strategy, comp);
  EXPECT_EQ(store->latest_full(), 9u);
  EXPECT_EQ(strategy.stats().full_ckpts, 2u);
  const auto recovered = store->read_full(9, h.spec);
  EXPECT_EQ(recovered.step(), 10u);
}

TEST(CheckFreq, PersistsAsynchronouslyAndFlushes) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  CheckFreqStrategy strategy(store, 3);
  Harness h;
  TopKCompressor comp(0.1);
  for (std::uint64_t t = 0; t < 10; ++t) h.step(t, strategy, comp);
  strategy.flush();
  EXPECT_EQ(strategy.stats().full_ckpts, 3u);  // iters 2, 5, 8
  EXPECT_EQ(store->latest_full(), 8u);
  // The persisted state is exactly the state at that iteration.
  EXPECT_EQ(store->read_full(8, h.spec).step(), 9u);
}

TEST(Gemini, MemoryTierRecoveryAndRarePersistence) {
  auto tier = std::make_shared<MemStorage>();
  auto durable_mem = std::make_shared<MemStorage>();
  auto durable = std::make_shared<CheckpointStore>(durable_mem);
  GeminiStrategy strategy(tier, durable, /*interval=*/1, /*persist_interval=*/5);
  Harness h;
  TopKCompressor comp(0.1);
  for (std::uint64_t t = 0; t < 12; ++t) h.step(t, strategy, comp);
  strategy.flush();

  // Every iteration is in the memory tier; durable persisted every 5th.
  EXPECT_EQ(strategy.stats().full_ckpts, 12u);
  const auto from_memory = strategy.recover_from_memory(h.spec);
  EXPECT_TRUE(from_memory.bit_equal(h.state));
  EXPECT_EQ(durable->latest_full(), 9u);

  // Hardware failure: the memory tier is lost; durable survives.
  tier->clear();
  EXPECT_THROW(strategy.recover_from_memory(h.spec), Error);
  EXPECT_TRUE(durable->read_full(9, h.spec).bit_equal(
      durable->read_full(9, h.spec)));
}

TEST(NaiveDc, RecoversExactlyFromStateDiffs) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  // rho=1: the "compressed" parameter diff is lossless, so recovery must be
  // exact; smaller rho loses information by design (Check-N-Run relies on
  // sparsity that general models lack — the paper's point).
  NaiveDcStrategy strategy(store, std::make_unique<TopKCompressor>(1.0),
                           /*diff_interval=*/1, /*full_interval=*/6);
  Harness h;
  TopKCompressor comp(0.1);
  for (std::uint64_t t = 0; t < 10; ++t) h.step(t, strategy, comp);
  strategy.flush();

  const auto recovered = strategy.recover(h.spec);
  EXPECT_EQ(recovered.step(), h.state.step());
  EXPECT_LT(
      ops::max_abs_diff(recovered.params().cspan(), h.state.params().cspan()),
      1e-6f);
  EXPECT_LT(
      ops::max_abs_diff(recovered.moment1().cspan(), h.state.moment1().cspan()),
      1e-6f);
}

/// Trains `iters` iterations under a lossless NaiveDC strategy and keeps
/// the state after each one.
std::vector<ModelState> run_naive_dc(Harness& h, NaiveDcStrategy& strategy,
                                     std::uint64_t iters) {
  TopKCompressor comp(0.1);
  std::vector<ModelState> snapshots;
  for (std::uint64_t t = 0; t < iters; ++t) {
    h.step(t, strategy, comp);
    snapshots.push_back(h.state.clone());
  }
  strategy.flush();
  return snapshots;
}

void expect_state_near(const ModelState& got, const ModelState& want) {
  EXPECT_EQ(got.step(), want.step());
  EXPECT_LT(ops::max_abs_diff(got.params().cspan(), want.params().cspan()), 1e-6f);
  EXPECT_LT(ops::max_abs_diff(got.moment1().cspan(), want.moment1().cspan()), 1e-6f);
  EXPECT_LT(ops::max_abs_diff(got.moment2().cspan(), want.moment2().cspan()), 1e-6f);
}

TEST(NaiveDc, ChainEndsAtFirstMissingDiff) {
  // A diff is a state change since the previous checkpoint: stepping over a
  // diff that never committed lands in a state training never had.
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  NaiveDcStrategy strategy(store, std::make_unique<TopKCompressor>(1.0),
                           /*diff_interval=*/1, /*full_interval=*/6);
  Harness h;
  const auto snapshots = run_naive_dc(h, strategy, 10);
  ASSERT_EQ(store->latest_full(), 5u);

  mem->remove(commit_marker_key(NaiveDcStrategy::naive_diff_key(7)));
  expect_state_near(strategy.recover(h.spec), snapshots[6]);
}

TEST(NaiveDc, DiffIntervalChainStepsByIntervalAndStopsAtUncommittedFull) {
  // Diffs every 2nd iteration, fulls every 5th, over iterations 0..8: a
  // full at 0 (the first call), diffs at 1 and 3, a full at 4, diffs at 5
  // and 7.
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  NaiveDcStrategy strategy(store, std::make_unique<TopKCompressor>(1.0),
                           /*diff_interval=*/2, /*full_interval=*/5);
  Harness h;
  const auto snapshots = run_naive_dc(h, strategy, 9);
  ASSERT_EQ(store->latest_full(), 4u);
  expect_state_near(strategy.recover(h.spec), snapshots[7]);

  // Without the full at 4, the diffs after it start from a state the chain
  // from the full at 0 cannot rebuild: recovery stops at 3.
  mem->remove(commit_marker_key(CheckpointStore::full_key(4)));
  ASSERT_EQ(store->latest_full(), 0u);
  expect_state_near(strategy.recover(h.spec), snapshots[3]);
}

TEST(NaiveDc, DiffRecordsAreLargerThanLowDiffPayloads) {
  // Exp. 7's root cause: NaiveDC stores raw optimizer diffs, so its
  // records dwarf the reused compressed gradients at the same rho.
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  NaiveDcStrategy strategy(store, std::make_unique<TopKCompressor>(0.01),
                           1, 1000);
  Harness h(2000);
  TopKCompressor comp(0.01);
  for (std::uint64_t t = 0; t < 5; ++t) h.step(t, strategy, comp);
  strategy.flush();

  const auto naive_bytes = mem->read(NaiveDcStrategy::naive_diff_key(1));
  ASSERT_TRUE(naive_bytes.has_value());
  const auto payload = comp.compress(h.grad.cspan(), 0);
  // Naive diff carries 2 * n raw floats (~16KB) vs ~8 * rho * n (~160B).
  EXPECT_GT(naive_bytes->size(), payload.byte_size() * 20);
}

TEST(LowDiff, BatchedWritesAndRecovery) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  LowDiffStrategy::Options opt;
  opt.batch_size = 3;
  opt.full_interval = 8;
  auto strategy = std::make_unique<LowDiffStrategy>(store, opt);

  Harness h;
  TopKCompressor comp(0.1);
  for (std::uint64_t t = 0; t < 20; ++t) h.step(t, *strategy, comp);
  strategy->flush();

  const auto stats = strategy->stats();
  EXPECT_EQ(stats.diff_ckpts, 20u);
  EXPECT_EQ(stats.full_ckpts, 2u);          // iters 7, 15
  EXPECT_GE(stats.batched_writes, 6u);      // 20 diffs / batch 3 (+ tail)
  EXPECT_EQ(store->latest_full(), 15u);

  // Recovery from full @15 + diffs 16..19 must be bit-exact.
  RecoveryEngine engine(h.spec, h.adam.clone(), comp.clone());
  const auto recovered = engine.recover_serial(*store);
  EXPECT_TRUE(recovered.bit_equal(h.state));
  strategy.reset();
}

TEST(LowDiff, PartialBatchLostWithoutFlush) {
  // Crash semantics: differentials still in the CPU batch buffer are lost
  // (the b/2 term of the wasted-time model); recovery lands on the last
  // *written* batch boundary.
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  LowDiffStrategy::Options opt;
  opt.batch_size = 4;
  opt.full_interval = 100;  // no second full checkpoint
  auto strategy = std::make_unique<LowDiffStrategy>(store, opt);

  Harness h;
  TopKCompressor comp(0.1);
  std::unique_ptr<ModelState> at_full;
  ModelState at_last_batch(h.spec);
  for (std::uint64_t t = 0; t < 11; ++t) {
    h.step(t, *strategy, comp);
    if (t == 0) {
      store->put_full(0, h.state);  // base full checkpoint
    }
    if (t == 7) at_last_batch = h.state.clone();
  }
  // Give the checkpointing thread a moment, then crash (destroy without
  // flushing the partial batch of iterations 8-10).
  while (strategy->stats().batched_writes < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  strategy.reset();  // crash: batch buffer dropped

  RecoveryEngine engine(h.spec, h.adam.clone(), comp.clone());
  const auto recovered = engine.recover_serial(*store);
  // Batches [0..3] and [4..7] were written; diffs 8..10 lost.
  EXPECT_TRUE(recovered.bit_equal(at_last_batch));
  EXPECT_FALSE(recovered.bit_equal(h.state));
}

TEST(LowDiff, ZeroCopyUntilOffload) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  LowDiffStrategy::Options opt;
  opt.batch_size = 2;
  auto strategy = std::make_unique<LowDiffStrategy>(store, opt);

  auto payload = std::make_shared<const CompressedGrad>(CompressedGrad{
      CompressionScheme::kTopK, 10, 0, {1, 2}, {0.5f, 0.25f}, {}, {}});
  std::weak_ptr<const CompressedGrad> weak = payload;
  Harness h(10);
  strategy->after_step(0, h.state, std::move(payload));
  strategy->flush();
  // After offload the device handle must be released.
  EXPECT_TRUE(weak.expired());
  strategy.reset();
}

TEST(LowDiff, DeviceResidencyAblation) {
  // Exp. 6(b): without CPU offload the batch buffer stays device-resident.
  for (bool offload : {true, false}) {
    auto mem = std::make_shared<MemStorage>();
    auto store = std::make_shared<CheckpointStore>(mem);
    LowDiffStrategy::Options opt;
    opt.batch_size = 8;
    opt.full_interval = 1000;
    opt.offload_batching_to_cpu = offload;
    auto strategy = std::make_unique<LowDiffStrategy>(store, opt);
    Harness h(4000);
    TopKCompressor comp(0.1);
    for (std::uint64_t t = 0; t < 8; ++t) {
      h.step(t, *strategy, comp);
      if (offload) {
        // Drain per step so the peak reflects steady state, not a transient
        // pile-up of not-yet-offloaded handles.
        strategy->flush();
      }
    }
    strategy->flush();
    const auto stats = strategy->stats();
    const std::size_t one_payload = comp.compress(h.grad.cspan(), 0).byte_size();
    if (offload) {
      EXPECT_LT(stats.peak_device_bytes, 4 * one_payload);
    } else {
      EXPECT_GE(stats.peak_device_bytes, 7 * one_payload);
    }
    strategy.reset();
  }
}

TEST(LowDiff, PruneOnFullBoundsStorage) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  LowDiffStrategy::Options opt;
  opt.batch_size = 2;
  opt.full_interval = 6;
  opt.prune_on_full = true;
  auto strategy = std::make_unique<LowDiffStrategy>(store, opt);

  Harness h;
  TopKCompressor comp(0.1);
  for (std::uint64_t t = 0; t < 30; ++t) h.step(t, *strategy, comp);
  strategy->flush();

  // Only the latest full (iter 29) and nothing older may remain;
  // recovery must still be exact from what's left.
  EXPECT_EQ(store->latest_full(), 29u);
  const auto usage = store->usage();
  EXPECT_EQ(usage.full_count, 1u);
  RecoveryEngine engine(h.spec, h.adam.clone(), comp.clone());
  EXPECT_TRUE(engine.recover_serial(*store).bit_equal(h.state));
  strategy.reset();
}

TEST(LowDiffPlus, ReplicaTracksTrainingBitExactly) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);

  const auto spec = spec_of(300);
  ModelState train_state(spec);
  train_state.init_random(9);

  LowDiffPlusStrategy::Options opt;
  opt.persist_interval = 4;
  auto strategy = std::make_unique<LowDiffPlusStrategy>(
      store, train_state, std::make_unique<Adam>(), opt);

  // Train densely, streaming layer chunks in reverse order (Fig. 5).
  Adam adam;
  Tensor grad(spec.param_count());
  Xoshiro256 rng(4);
  const auto offsets = spec.layer_offsets();
  for (std::uint64_t t = 0; t < 10; ++t) {
    ops::fill_normal(grad.span(), rng, 0.3f);
    adam.step(train_state, grad.cspan());
    for (std::size_t l = spec.layers.size(); l-- > 0;) {
      LowDiffPlusStrategy::GradChunk chunk;
      chunk.iteration = t;
      chunk.offset = offsets[l];
      const auto slice = grad.cspan().subspan(offsets[l], offsets[l + 1] - offsets[l]);
      chunk.values.assign(slice.begin(), slice.end());
      chunk.last_of_iteration = (l == 0);
      strategy->on_layer_gradient(std::move(chunk));
    }
  }

  // Software failure at iteration 9: the in-memory replica must equal the
  // GPU state exactly (this is the LowDiff+(S) recovery path).
  const auto replica = strategy->replica_snapshot(9);
  EXPECT_TRUE(replica.bit_equal(train_state));

  strategy->flush();
  // Persistence every 4 iterations: 3, 7 (iterations are 0-based).
  EXPECT_EQ(store->latest_full(), 7u);
  const auto persisted = store->read_full(7, spec);
  EXPECT_EQ(persisted.step(), 8u);
  strategy.reset();
}

TEST(LowDiffPlus, DensePayloadFallback) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  const auto spec = spec_of(100);
  ModelState train_state(spec);
  train_state.init_random(2);
  LowDiffPlusStrategy::Options opt;
  opt.persist_interval = 2;
  auto strategy = std::make_unique<LowDiffPlusStrategy>(
      store, train_state, std::make_unique<Adam>(), opt);

  Adam adam;
  DenseCompressor dense;
  Tensor grad(spec.param_count());
  Xoshiro256 rng(6);
  for (std::uint64_t t = 0; t < 4; ++t) {
    ops::fill_normal(grad.span(), rng, 0.2f);
    adam.step(train_state, grad.cspan());
    strategy->after_step(t, train_state, std::make_shared<const CompressedGrad>(
                                             dense.compress(grad.cspan(), t)));
  }
  EXPECT_TRUE(strategy->replica_snapshot(3).bit_equal(train_state));
  strategy->flush();
  EXPECT_EQ(strategy->stats().full_ckpts, 2u);
  strategy.reset();
}

TEST(LowDiffPlus, RejectsSparsePayloadInFallback) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  const auto spec = spec_of(50);
  ModelState state(spec);
  LowDiffPlusStrategy strategy(store, state, std::make_unique<Adam>(), {});
  auto sparse = std::make_shared<const CompressedGrad>(
      CompressedGrad{CompressionScheme::kTopK, 50, 0, {1}, {1.0f}, {}, {}});
  EXPECT_THROW(strategy.after_step(0, state, sparse), Error);
}

}  // namespace
}  // namespace lowdiff

namespace lowdiff {
namespace {

TEST(LowDiff, OffloadsThroughThePcieModel) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  LowDiffStrategy::Options opt;
  opt.batch_size = 2;
  opt.full_interval = 100;
  opt.pcie = std::make_shared<Throttler>(links::pcie_gen4(), /*time_scale=*/1e-9);
  auto strategy = std::make_unique<LowDiffStrategy>(store, opt);

  Harness h(1000);
  TopKCompressor comp(0.1);
  for (std::uint64_t t = 0; t < 6; ++t) h.step(t, *strategy, comp);
  strategy->flush();
  EXPECT_GT(opt.pcie->busy_time(), 0.0);
  EXPECT_EQ(opt.pcie->total_bytes() > 0, true);
  strategy.reset();
}

TEST(LowDiffPlus, SnapshotsThroughThePcieModel) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  const auto spec = spec_of(100);
  ModelState init(spec);
  init.init_random(1);
  LowDiffPlusStrategy::Options opt;
  opt.persist_interval = 100;
  opt.pcie = std::make_shared<Throttler>(links::pcie_gen3(), 1e-9);
  LowDiffPlusStrategy strategy(store, init, std::make_unique<Adam>(), opt);

  DenseCompressor dense;
  Adam adam;
  ModelState train = init.clone();
  Tensor grad(spec.param_count());
  Xoshiro256 rng(2);
  for (std::uint64_t t = 0; t < 3; ++t) {
    ops::fill_normal(grad.span(), rng, 0.1f);
    adam.step(train, grad.cspan());
    strategy.after_step(t, train, std::make_shared<const CompressedGrad>(
                                      dense.compress(grad.cspan(), t)));
  }
  strategy.flush();
  EXPECT_GT(opt.pcie->busy_time(), 0.0);
  EXPECT_TRUE(strategy.replica_snapshot(2).bit_equal(train));
}

/// Adam whose step_slice announces that it started, then blocks until
/// released: holds LowDiff+'s update thread inside the replica update.
class LatchedAdam final : public Optimizer {
 public:
  LatchedAdam(std::atomic<bool>& entered, std::shared_future<void> release)
      : entered_(entered), release_(std::move(release)) {}

  void step(ModelState& state, std::span<const float> grad) const override {
    adam_.step(state, grad);
  }
  void step_slice(ModelState& state, std::size_t offset,
                  std::span<const float> grad) const override {
    entered_ = true;
    release_.wait();
    adam_.step_slice(state, offset, grad);
  }
  std::string name() const override { return "LatchedAdam"; }
  std::unique_ptr<Optimizer> clone() const override {
    return std::make_unique<LatchedAdam>(entered_, release_);
  }

 private:
  Adam adam_;
  std::atomic<bool>& entered_;
  std::shared_future<void> release_;
};

TEST(LowDiffPlus, EnqueueDoesNotWaitForTheReplicaUpdate) {
  // The training thread's hand-off must not queue behind the update
  // thread's step_slice (or its full-state serialization).
  std::atomic<bool> entered{false};
  std::promise<void> release;
  auto store = std::make_shared<CheckpointStore>(std::make_shared<MemStorage>());
  const auto spec = spec_of(100);
  ModelState init(spec);
  init.init_random(3);
  LowDiffPlusStrategy strategy(
      store, init,
      std::make_unique<LatchedAdam>(entered, release.get_future().share()), {});

  auto chunk = [&spec](std::size_t layer) {
    LowDiffPlusStrategy::GradChunk c;
    c.iteration = 0;
    c.offset = spec.layer_offsets()[layer];
    c.values.assign(spec.layers[layer].size(), 0.25f);
    c.last_of_iteration = (layer == 0);
    return c;
  };
  strategy.on_layer_gradient(chunk(1));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!entered && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Watchdog: an enqueue stuck behind the blocked update is released after
  // the bound, so the test fails instead of hanging.
  auto second = std::async(std::launch::async, [&strategy, &chunk] {
    strategy.on_layer_gradient(chunk(0));
  });
  const bool returned =
      second.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();
  second.get();
  strategy.flush();
  EXPECT_TRUE(entered) << "the update thread never reached step_slice";
  EXPECT_TRUE(returned) << "on_layer_gradient waited for the replica update";
  EXPECT_EQ(strategy.stats().diff_ckpts, 1u);
}

TEST(Gemini, ThrottledMemoryTierChargesNetworkTime) {
  // The "remote CPU memory" tier behind a 25 Gbps link: Gemini's traffic
  // cost shows up as modeled link busy-time.
  auto raw_tier = std::make_shared<MemStorage>();
  auto tier = std::make_shared<ThrottledStorage>(raw_tier, links::ib_25gbps(),
                                                 /*time_scale=*/1e-9);
  auto durable = std::make_shared<CheckpointStore>(std::make_shared<MemStorage>());
  GeminiStrategy strategy(tier, durable, 1, 10);
  Harness h;
  TopKCompressor comp(0.1);
  for (std::uint64_t t = 0; t < 5; ++t) h.step(t, strategy, comp);
  strategy.flush();
  EXPECT_GT(tier->busy_time(), 0.0);
  EXPECT_TRUE(strategy.recover_from_memory(h.spec).bit_equal(h.state));
}

}  // namespace
}  // namespace lowdiff
