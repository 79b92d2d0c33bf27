#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/logging.h"
#include "compress/topk.h"
#include "core/recovery.h"
#include "core/trainer.h"
#include "sim/failure.h"
#include "storage/fault_injection.h"
#include "storage/mem_storage.h"
#include "support/kill_points.h"

namespace lowdiff {
namespace {

using test_support::KillPointEnumerator;
using test_support::poisson_kill_points;
using test_support::sweep_seed;

/// Crash harness: kill training at the points yielded by an injected
/// KillPointEnumerator, restart a fresh "process", recover from the
/// checkpoint store, resume — and require the final state to be bit-exact
/// against an uninterrupted run.  The enumerator is the only thing that
/// differs between this suite (Poisson-sampled iteration kills, the paper's
/// failure process) and the group-commit crash matrix (exhaustive
/// backend-op boundaries in test_persist_pipeline.cpp) — the kill logic
/// itself lives once, in tests/support/kill_points.h.  Then the same
/// end-to-end loop under injected silent bit flips: every corrupt record
/// recovery encounters must be detected by CRC and degraded around, never
/// thrown on and never silently consumed.
///
/// All base seeds route through sweep_seed(), so `ctest -L seeds` reruns
/// the whole file over decorrelated universes via LOWDIFF_TEST_SEED.

constexpr std::uint64_t kTotalIters = 40;
constexpr double kRho = 0.05;

MlpConfig mlp() {
  MlpConfig cfg;
  cfg.input_dim = 10;
  cfg.hidden = {20, 16};
  cfg.num_classes = 5;
  return cfg;
}

TrainerConfig harness_cfg(OptimizerKind kind) {
  TrainerConfig cfg;
  cfg.world = 2;
  cfg.batch_size = 16;
  cfg.rho = kRho;
  cfg.optimizer = kind;
  cfg.adam.lr = 4e-3f;
  cfg.sgd.lr = 1e-2f;
  cfg.sgd.momentum = 0.9f;
  cfg.seed = sweep_seed(123);
  return cfg;
}

LowDiffStrategy::Options strategy_opt() {
  LowDiffStrategy::Options opt;
  opt.batch_size = 3;
  opt.full_interval = 5;
  return opt;
}

/// The harness body, kill schedule injected.  `recoveries_out` counts the
/// kills that landed after a durable full checkpoint (i.e. actually
/// exercised recovery rather than a from-scratch restart).
void run_crash_harness(const TrainerConfig& cfg,
                       const KillPointEnumerator& kill_points,
                       int* recoveries_out) {
  // Uninterrupted reference run.
  Trainer reference(mlp(), cfg);
  reference.run(0, kTotalIters, nullptr);

  int& recoveries = *recoveries_out;
  recoveries = 0;
  while (const auto kill_point = kill_points()) {
    const std::uint64_t kill = *kill_point;

    auto store = std::make_shared<CheckpointStore>(std::make_shared<MemStorage>());
    Trainer crashed(mlp(), cfg);
    {
      auto strategy = std::make_unique<LowDiffStrategy>(store, strategy_opt());
      crashed.run(0, kill, strategy.get());
    }  // destructor without flush(): the crash; a partial batch may be lost

    // Fresh "process": recover whatever is durable and finish the job.
    Trainer resumed(mlp(), cfg);
    std::uint64_t position = 0;
    if (store->latest_full().has_value()) {
      RecoveryEngine engine(resumed.spec(), resumed.make_optimizer(),
                            TopKCompressor(kRho).clone());
      RecoveryReport report;
      const ModelState recovered = engine.recover_serial(*store, &report);
      ASSERT_LT(report.final_iteration, kill) << "kill=" << kill;
      EXPECT_EQ(report.corrupt_diffs_skipped, 0u);
      EXPECT_EQ(report.corrupt_fulls_skipped, 0u);
      position = report.final_iteration + 1;
      resumed.set_state(recovered);
      ++recoveries;
    }  // else: crashed before the first full checkpoint — restart from scratch
    resumed.run(position, kTotalIters - position, nullptr);

    ASSERT_TRUE(resumed.state(0).bit_equal(reference.state(0)))
        << "kill point " << kill << " broke bit-exactness";
  }
}

class CrashHarness : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(CrashHarness, RandomizedKillPointsRecoverBitExact) {
  const TrainerConfig cfg = harness_cfg(GetParam());
  // Kill points drawn from the simulator's failure process, decorrelated
  // per sweep universe.
  const int kKillPoints = 20;
  const std::uint64_t seed =
      sweep_seed(GetParam() == OptimizerKind::kAdam ? 101 : 202);
  int recoveries = 0;
  run_crash_harness(
      cfg, poisson_kill_points(/*mtbf_sec=*/15.0, seed, kKillPoints, kTotalIters),
      &recoveries);
  // The sampled kill points must actually exercise recovery, not just
  // from-scratch restarts.
  EXPECT_GE(recoveries, kKillPoints / 2);
}

INSTANTIATE_TEST_SUITE_P(Optimizers, CrashHarness,
                         ::testing::Values(OptimizerKind::kAdam,
                                           OptimizerKind::kSgd),
                         [](const auto& info) {
                           return info.param == OptimizerKind::kAdam ? "Adam"
                                                                     : "Sgd";
                         });

// --- corruption-aware recovery ------------------------------------------------

TEST(FaultTolerance, CorruptDiffTruncatesReplayAndIsCounted) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  const TrainerConfig cfg = harness_cfg(OptimizerKind::kAdam);

  Trainer trainer(mlp(), cfg);
  LowDiffStrategy::Options opt;
  opt.batch_size = 2;
  opt.full_interval = 8;
  {
    auto strategy = std::make_unique<LowDiffStrategy>(store, opt);
    trainer.run(0, 20, strategy.get());
    strategy->flush();
  }
  // Fulls at 7 and 15; diff batches [16,17] and [18,19] follow the latest.
  ASSERT_EQ(*store->latest_full(), 15u);
  const auto diffs = store->diffs_after(15);
  ASSERT_EQ(diffs.size(), 4u);

  // Silently flip one bit in the *second* batch, bypassing the commit
  // protocol (the marker still promises the original CRC).
  const auto key = CheckpointStore::batch_key(18, 19);
  auto bytes = *mem->read(key);
  bytes[bytes.size() / 3] ^= std::byte{0x04};
  mem->write(key, bytes);

  RecoveryEngine engine(trainer.spec(), trainer.make_optimizer(),
                        TopKCompressor(kRho).clone());
  RecoveryReport report;
  const ModelState recovered = engine.recover_serial(*store, &report);

  // Both members of the corrupt batch are detected; the replay stops at the
  // last iteration before the damage instead of consuming bad state.
  EXPECT_EQ(report.corrupt_diffs_skipped, 2u);
  EXPECT_EQ(report.diffs_replayed, 2u);
  EXPECT_EQ(report.final_iteration, 17u);

  Trainer replay(mlp(), cfg);
  replay.run(0, 18, nullptr);
  EXPECT_TRUE(recovered.bit_equal(replay.state(0)));
}

TEST(FaultTolerance, InjectedBitFlipsAllDetectedAndDegraded) {
  const TrainerConfig cfg = harness_cfg(OptimizerKind::kAdam);
  set_log_level(LogLevel::kOff);  // recovery legitimately logs each corrupt record

  // A fault seed can be vacuous two ways: no flip ever fires, or a flip
  // kills *every* full checkpoint so there is nothing to degrade to.  Under
  // the seed sweep either can happen for some universes, so re-roll the
  // fault seed (bounded, deterministic) until the run is assertable.
  auto mem = std::make_shared<MemStorage>();
  std::shared_ptr<FaultInjectingStorage> faulty;
  std::shared_ptr<CheckpointStore> store;
  std::optional<Trainer> trainer;
  std::optional<std::uint64_t> base;
  std::uint64_t expected_bad_fulls = 0;
  constexpr int kMaxRolls = 8;
  for (int roll = 0; roll < kMaxRolls && !base.has_value(); ++roll) {
    FaultSpec spec;
    spec.bit_flip_rate = 0.15;
    // roll 0 in a normal run is the historical seed 31, unchanged.
    spec.seed = roll == 0 ? sweep_seed(31)
                          : test_support::mix_seed(sweep_seed(31), 7000 + roll);
    mem = std::make_shared<MemStorage>();
    faulty = std::make_shared<FaultInjectingStorage>(mem, spec);
    store = std::make_shared<CheckpointStore>(faulty);
    trainer.emplace(mlp(), cfg);
    LowDiffStrategy::Options opt;
    opt.batch_size = 2;
    opt.full_interval = 8;
    {
      auto strategy = std::make_unique<LowDiffStrategy>(store, opt);
      trainer->run(0, 30, strategy.get());
      strategy->flush();
    }
    if (faulty->fault_stats().bit_flips == 0) continue;  // vacuous: no damage
    faulty->set_armed(false);  // the storage medium is quiet during recovery

    // Ground truth from the manifest: the newest full a scan finds intact.
    expected_bad_fulls = 0;
    const auto fulls = store->manifest().fulls;
    for (auto it = fulls.rbegin(); it != fulls.rend(); ++it) {
      if (store->try_read_full(*it, trainer->spec()).ok()) {
        base = *it;
        break;
      }
      ++expected_bad_fulls;
    }  // base unset: every full corrupt — also vacuous, re-roll
  }
  ASSERT_TRUE(base.has_value())
      << kMaxRolls << " fault seeds in a row produced no assertable universe";

  // Recovery must report exactly the corrupt records a manifest scan finds
  // — no more, no fewer — counted per iteration after the base.
  std::uint64_t expected_bad_diffs = 0;
  for (const auto& record : store->manifest().diffs) {
    if (record.last > *base && !store->try_read_diffs(record).ok()) {
      expected_bad_diffs += record.last - std::max(record.first, *base + 1) + 1;
    }
  }

  RecoveryEngine engine(trainer->spec(), trainer->make_optimizer(),
                        TopKCompressor(kRho).clone());
  RecoveryReport report;
  ModelState recovered(trainer->spec());
  // The headline requirement: corruption degrades, it does not throw.
  ASSERT_NO_THROW(recovered = engine.recover_serial(*store, &report));

  EXPECT_EQ(report.full_iteration, *base);
  EXPECT_EQ(report.corrupt_fulls_skipped, expected_bad_fulls);
  EXPECT_EQ(report.corrupt_diffs_skipped, expected_bad_diffs);

  // Whatever prefix survived, it is a *correct* prefix.
  Trainer replay(mlp(), cfg);
  replay.run(0, report.final_iteration + 1, nullptr);
  EXPECT_TRUE(recovered.bit_equal(replay.state(0)));
  set_log_level(LogLevel::kWarn);
}

}  // namespace
}  // namespace lowdiff
