// Equivalence suite: parallel recovery must reconstruct the same state as
// serial recovery for differential chains of every awkward length, with and
// without corruption truncating the replay prefix, and for parameter counts
// that split each replayed step into coordinate slices on pools of every
// size.  Fixed seeds keep the randomized inputs deterministic.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "compress/topk.h"
#include "core/checkpoint_store.h"
#include "core/recovery.h"
#include "optim/adam.h"
#include "optim/sgd.h"
#include "storage/atomic_commit.h"
#include "storage/mem_storage.h"
#include "tensor/ops.h"

namespace lowdiff {
namespace {

constexpr std::uint64_t kSeeds[] = {5, 77, 901};
constexpr std::uint64_t kChainLengths[] = {1, 2, 3, 7, 16};
constexpr std::uint64_t kFullAt = 4;

ModelSpec spec_of(std::size_t n) {
  ModelSpec spec;
  spec.name = "flat";
  spec.layers = {{"w", {n}}};
  return spec;
}

/// Trains with gradient reuse: one full checkpoint at kFullAt, then
/// `n_diffs` reused compressed gradients.  Returns the final state.
ModelState train_chain(CheckpointStore& store, const ModelSpec& spec,
                       const Optimizer& opt, const Compressor& comp,
                       std::uint64_t n_diffs, std::uint64_t seed) {
  ModelState state(spec);
  state.init_random(seed);
  Tensor grad(spec.param_count());
  Tensor dense(spec.param_count());
  Xoshiro256 rng(seed * 131 + 7);
  const std::uint64_t iters = kFullAt + n_diffs + 1;
  for (std::uint64_t t = 0; t < iters; ++t) {
    ops::fill_normal(grad.span(), rng, 0.5f);
    const auto payload = comp.compress(grad.cspan(), t);
    comp.decompress(payload, dense.span());
    opt.step(state, dense.cspan());
    if (t == kFullAt) {
      store.put_full(t, state);
    } else if (t > kFullAt) {
      store.put_diff(payload);
    }
  }
  return state;
}

/// Flips one byte of the stored differential for `iter`, bypassing the
/// commit protocol — the marker still promises the original CRC, so reads
/// must detect the mismatch.
void corrupt_diff(MemStorage& mem, std::uint64_t iter) {
  const auto key = CheckpointStore::diff_key(iter);
  auto bytes = *mem.read(key);
  bytes[bytes.size() / 2] ^= std::byte{0x10};
  mem.write(key, bytes);
}

TEST(RecoveryEquivalence, ParallelMatchesSerialForEveryChainLength) {
  for (const auto seed : kSeeds) {
    for (const auto n : kChainLengths) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n));
      const auto spec = spec_of(350);
      auto mem = std::make_shared<MemStorage>();
      CheckpointStore store(mem);
      Adam adam;
      TopKCompressor comp(0.08);
      const auto trained = train_chain(store, spec, adam, comp, n, seed);

      RecoveryEngine engine(spec, adam.clone(), comp.clone());
      ThreadPool pool(4);
      RecoveryReport serial_report, parallel_report;
      const auto serial = engine.recover_serial(store, &serial_report);
      const auto parallel =
          engine.recover_parallel(store, pool, &parallel_report);

      EXPECT_TRUE(serial.bit_equal(trained));
      EXPECT_TRUE(parallel.bit_equal(serial));
      EXPECT_EQ(serial_report.diffs_replayed, n);
      EXPECT_EQ(parallel_report.diffs_replayed, n);
      EXPECT_EQ(parallel_report.full_iteration, serial_report.full_iteration);
      EXPECT_EQ(parallel_report.final_iteration, serial_report.final_iteration);
      EXPECT_EQ(parallel_report.corrupt_diffs_skipped, 0u);
    }
  }
}

TEST(RecoveryEquivalence, CorruptDiffTruncatesBothPathsIdentically) {
  for (const auto seed : kSeeds) {
    for (const auto n : kChainLengths) {
      // Corrupt one differential per chain — first, middle, last across
      // the sweep so every truncation position is exercised.
      const std::uint64_t corrupt_pos = (seed % n);
      SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
                   " corrupt_pos=" + std::to_string(corrupt_pos));
      const auto spec = spec_of(280);
      auto mem = std::make_shared<MemStorage>();
      CheckpointStore store(mem);
      Adam adam;
      TopKCompressor comp(0.08);
      train_chain(store, spec, adam, comp, n, seed);
      corrupt_diff(*mem, kFullAt + 1 + corrupt_pos);

      RecoveryEngine engine(spec, adam.clone(), comp.clone());
      ThreadPool pool(3);
      RecoveryReport serial_report, parallel_report;
      const auto serial = engine.recover_serial(store, &serial_report);
      const auto parallel =
          engine.recover_parallel(store, pool, &parallel_report);

      // Truncated-prefix semantics: everything before the corrupt record
      // replays, nothing after it does, identically on both paths.
      EXPECT_TRUE(parallel.bit_equal(serial));
      EXPECT_EQ(serial_report.diffs_replayed, corrupt_pos);
      EXPECT_EQ(parallel_report.diffs_replayed, corrupt_pos);
      EXPECT_EQ(serial_report.corrupt_diffs_skipped, 1u);
      EXPECT_EQ(parallel_report.corrupt_diffs_skipped, 1u);
      const std::uint64_t expect_final =
          corrupt_pos == 0 ? kFullAt : kFullAt + corrupt_pos;
      EXPECT_EQ(serial_report.final_iteration, expect_final);
      EXPECT_EQ(parallel_report.final_iteration, expect_final);
    }
  }
}

TEST(RecoveryEquivalence, AdditiveMergeMatchesSerialForSgd) {
  // The pairwise-merge path (Fig. 7) only composes for a state-free
  // optimizer; float re-association across merges allows tiny drift, so
  // this is near-equality, not bit-equality.
  for (const auto seed : kSeeds) {
    for (const auto n : kChainLengths) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n));
      const auto spec = spec_of(320);
      auto mem = std::make_shared<MemStorage>();
      CheckpointStore store(mem);
      SgdConfig sgd_cfg;
      Sgd sgd(sgd_cfg);
      TopKCompressor comp(0.1);
      train_chain(store, spec, sgd, comp, n, seed);

      RecoveryEngine engine(spec, sgd.clone(), comp.clone());
      ThreadPool pool(4);
      RecoveryReport serial_report, additive_report;
      const auto serial = engine.recover_serial(store, &serial_report);
      const auto additive = engine.recover_parallel_additive(
          store, pool, sgd_cfg.lr, &additive_report);

      EXPECT_EQ(additive_report.diffs_replayed, serial_report.diffs_replayed);
      EXPECT_EQ(additive_report.final_iteration, serial_report.final_iteration);
      EXPECT_GE(additive_report.merge_rounds,
                n > 1 ? static_cast<std::uint64_t>(std::ceil(std::log2(n))) : 0u);
      const auto a = serial.params().cspan();
      const auto b = additive.params().cspan();
      float max_err = 0.0f;
      for (std::size_t i = 0; i < a.size(); ++i) {
        max_err = std::max(max_err, std::fabs(a[i] - b[i]));
      }
      EXPECT_LT(max_err, 1e-4f) << "fp-reassociation drift too large";
    }
  }
}

// --- Replay sliced by coordinate ---------------------------------------------

constexpr std::size_t kSlice = RecoveryEngine::kReplaySlice;

/// What a sliced-replay chain holds besides its committed differentials.
enum class Damage { kNone, kHole, kCorrupt };

const char* to_string(Damage d) {
  switch (d) {
    case Damage::kNone: return "none";
    case Damage::kHole: return "hole";
    case Damage::kCorrupt: return "corrupt";
  }
  return "?";
}

TEST(RecoveryEquivalence, SlicedReplayMatchesSerialBitForBit) {
  set_log_level(LogLevel::kOff);  // recovery logs the hole and the corrupt record
  // One coordinate, a slice ± 1, a ragged multi-slice step, and the
  // livebench MLP's parameter count.
  const std::size_t sizes[] = {1, kSlice - 1, kSlice, kSlice + 1,
                               3 * kSlice + 5, 100752};
  constexpr std::uint64_t kDiffs = 6;
  // A damaged chain ends before this iteration, after 3 replayed steps.
  constexpr std::uint64_t kDamagedAt = kFullAt + 4;
  ThreadPool pool1(1), pool2(2), pool3(3), pool8(8);
  ThreadPool* const pools[] = {&pool1, &pool2, &pool3, &pool8};
  const Adam adam;
  const Sgd momentum(SgdConfig{.lr = 0.01f, .momentum = 0.9f});
  // Half the coordinates: even a one-parameter model gets a non-zero
  // gradient.
  const TopKCompressor comp(0.5);

  for (const Optimizer* opt : {static_cast<const Optimizer*>(&adam),
                               static_cast<const Optimizer*>(&momentum)}) {
    for (const std::size_t n : sizes) {
      for (const Damage damage : {Damage::kNone, Damage::kHole, Damage::kCorrupt}) {
        SCOPED_TRACE(opt->name() + " n=" + std::to_string(n) +
                     " damage=" + to_string(damage));
        const auto spec = spec_of(n);
        auto mem = std::make_shared<MemStorage>();
        CheckpointStore store(mem);
        const auto trained = train_chain(store, spec, *opt, comp, kDiffs, n);
        if (damage == Damage::kHole) {
          // Its data landed, its marker did not: it never committed.
          mem->remove(commit_marker_key(CheckpointStore::diff_key(kDamagedAt)));
        } else if (damage == Damage::kCorrupt) {
          corrupt_diff(*mem, kDamagedAt);
        }

        RecoveryEngine engine(spec, opt->clone(), comp.clone());
        RecoveryReport serial_report;
        const auto serial = engine.recover_serial(store, &serial_report);
        const std::uint64_t replayed =
            damage == Damage::kNone ? kDiffs : kDamagedAt - kFullAt - 1;
        EXPECT_EQ(serial_report.diffs_replayed, replayed);
        if (damage == Damage::kNone) {
          EXPECT_TRUE(serial.bit_equal(trained));
        }

        for (ThreadPool* pool : pools) {
          SCOPED_TRACE("pool=" + std::to_string(pool->size()));
          RecoveryReport report;
          const auto parallel = engine.recover_parallel(store, *pool, &report);
          EXPECT_TRUE(parallel.bit_equal(serial));
          EXPECT_EQ(parallel.step(), serial.step());
          EXPECT_EQ(report.diffs_replayed, serial_report.diffs_replayed);
          EXPECT_EQ(report.final_iteration, serial_report.final_iteration);
          EXPECT_EQ(report.corrupt_diffs_skipped,
                    serial_report.corrupt_diffs_skipped);
        }
      }
    }
  }
}

/// Top-k whose first decompress parks every worker of `pool` on `release`
/// and waits (bounded) until all are parked.  Recovery decompresses on the
/// replay thread before each step, and the parking tasks queue behind the
/// record reads, so every read has finished and every step runs with no
/// worker free: the replay thread must apply every slice itself.
class ParkingTopK final : public Compressor {
 public:
  ParkingTopK(ThreadPool& pool, std::shared_future<void> release,
              std::atomic<std::size_t>& parked)
      : pool_(pool), release_(std::move(release)), parked_(parked) {}

  CompressedGrad compress(std::span<const float> grad,
                          std::uint64_t iteration) const override {
    return topk_.compress(grad, iteration);
  }
  void decompress(const CompressedGrad& payload,
                  std::span<float> out) const override {
    if (!requested_.exchange(true)) {
      for (std::size_t w = 0; w < pool_.size(); ++w) {
        pool_.submit([&parked = parked_, release = release_] {
          ++parked;
          release.wait();
        });
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (parked_.load() < pool_.size() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    topk_.decompress(payload, out);
  }
  double nominal_ratio() const override { return topk_.nominal_ratio(); }
  std::string name() const override { return topk_.name(); }
  std::unique_ptr<Compressor> clone() const override {
    return std::make_unique<ParkingTopK>(pool_, release_, parked_);
  }

 private:
  TopKCompressor topk_{0.08};
  ThreadPool& pool_;
  std::shared_future<void> release_;
  std::atomic<std::size_t>& parked_;
  mutable std::atomic<bool> requested_{false};
};

TEST(RecoveryEquivalence, SlicedReplayFinishesOnTheCallerWhenEveryWorkerIsBusy) {
  constexpr std::uint64_t kDiffs = 8;
  const auto spec = spec_of(3 * kSlice + 5);  // four slices per step
  auto mem = std::make_shared<MemStorage>();
  CheckpointStore store(mem);
  const Adam adam;
  const auto trained =
      train_chain(store, spec, adam, TopKCompressor(0.08), kDiffs, 17);

  std::promise<void> release;
  std::atomic<std::size_t> parked{0};
  ThreadPool pool(2);  // joined before `parked` goes away
  RecoveryEngine engine(
      spec, adam.clone(),
      std::make_unique<ParkingTopK>(pool, release.get_future().share(), parked));
  RecoveryReport report;
  auto recovered = std::async(std::launch::async, [&] {
    return engine.recover_parallel(store, pool, &report);
  });
  // Watchdog: a replay that waits on a parked worker is released after the
  // bound instead of hanging the suite.
  const bool finished = recovered.wait_for(std::chrono::seconds(60)) ==
                        std::future_status::ready;
  release.set_value();
  const ModelState state = recovered.get();

  EXPECT_TRUE(finished) << "sliced replay waited for a parked worker";
  EXPECT_EQ(parked.load(), pool.size());
  EXPECT_TRUE(state.bit_equal(trained));
  EXPECT_EQ(report.diffs_replayed, kDiffs);
}

}  // namespace
}  // namespace lowdiff
