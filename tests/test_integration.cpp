#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "compress/dense.h"
#include "compress/quant8.h"
#include "compress/randomk.h"
#include "compress/topk.h"
#include "core/recovery.h"
#include "core/trainer.h"
#include "storage/file_storage.h"
#include "tensor/ops.h"

namespace lowdiff {
namespace {

/// End-to-end scenarios: train with LowDiff, crash, recover, continue —
/// asserting the recovered trajectory is indistinguishable from an
/// uninterrupted one.  This is the strongest form of the paper's
/// correctness claim (Eq. 2 / Finding 1).

MlpConfig mlp() {
  MlpConfig cfg;
  cfg.input_dim = 10;
  cfg.hidden = {20, 16};
  cfg.num_classes = 5;
  return cfg;
}

TrainerConfig trainer_cfg(double rho) {
  TrainerConfig cfg;
  cfg.world = 2;
  cfg.batch_size = 24;
  cfg.rho = rho;
  cfg.adam.lr = 4e-3f;
  cfg.seed = 77;
  return cfg;
}

TEST(Integration, CrashAndRecoverBitExactContinuation) {
  // Reference: uninterrupted 60-iteration run.
  Trainer reference(mlp(), trainer_cfg(0.05));
  reference.run(0, 60, nullptr);

  // Interrupted: LowDiff checkpointing, crash after 37 iterations.
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  LowDiffStrategy::Options opt;
  opt.batch_size = 3;
  opt.full_interval = 10;

  Trainer crashed(mlp(), trainer_cfg(0.05));
  {
    auto strategy = std::make_unique<LowDiffStrategy>(store, opt);
    crashed.run(0, 37, strategy.get());
    strategy->flush();  // clean handoff point for the assertion below
  }

  // "New process": recover the model state from storage.
  TopKCompressor comp(0.05);
  Adam adam(trainer_cfg(0.05).adam);
  RecoveryEngine engine(crashed.spec(), adam.clone(), comp.clone());
  RecoveryReport report;
  const auto recovered = engine.recover_serial(*store, &report);
  EXPECT_EQ(report.final_iteration, 36u);

  // The recovered state matches the crashed trainer's live state exactly.
  EXPECT_TRUE(recovered.bit_equal(crashed.state(0)));

  // Resume training from iteration 37 and converge with the reference.
  Trainer resumed(mlp(), trainer_cfg(0.05));
  resumed.set_state(recovered);
  resumed.run(37, 23, nullptr);
  EXPECT_TRUE(resumed.state(0).bit_equal(reference.state(0)));
}

TEST(Integration, CrashMidBatchLosesOnlyTheBufferedTail) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  LowDiffStrategy::Options opt;
  opt.batch_size = 4;
  opt.full_interval = 8;

  Trainer trainer(mlp(), trainer_cfg(0.05));
  {
    auto strategy = std::make_unique<LowDiffStrategy>(store, opt);
    trainer.run(0, 22, strategy.get());
    // Wait until every enqueued payload has been offloaded and all full
    // batches written, then crash without flushing the partial batch.
    while (strategy->stats().batched_writes < 5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }  // destructor = crash; diffs 20..21 (partial batch) are dropped

  TopKCompressor comp(0.05);
  Adam adam(trainer_cfg(0.05).adam);
  RecoveryEngine engine(trainer.spec(), adam.clone(), comp.clone());
  RecoveryReport report;
  const auto recovered = engine.recover_serial(*store, &report);

  // Full at 15, batches up to diff 19: at most batch_size iterations lost.
  EXPECT_GE(report.final_iteration, 19u);
  EXPECT_LE(22u - (report.final_iteration + 1), opt.batch_size);

  // Recovered state equals a clean run up to final_iteration + 1.
  Trainer replay(mlp(), trainer_cfg(0.05));
  replay.run(0, report.final_iteration + 1, nullptr);
  EXPECT_TRUE(recovered.bit_equal(replay.state(0)));
}

TEST(Integration, ParallelRecoveryMatchesSerialOnRealTraining) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  LowDiffStrategy::Options opt;
  opt.batch_size = 2;
  opt.full_interval = 12;

  Trainer trainer(mlp(), trainer_cfg(0.05));
  auto strategy = std::make_unique<LowDiffStrategy>(store, opt);
  trainer.run(0, 30, strategy.get());
  strategy->flush();
  strategy.reset();

  TopKCompressor comp(0.05);
  Adam adam(trainer_cfg(0.05).adam);
  RecoveryEngine engine(trainer.spec(), adam.clone(), comp.clone());
  ThreadPool pool(4);
  const auto serial = engine.recover_serial(*store);
  const auto parallel = engine.recover_parallel(*store, pool);
  EXPECT_TRUE(serial.bit_equal(parallel));
  EXPECT_TRUE(serial.bit_equal(trainer.state(0)));
}

TEST(Integration, LowDiffPlusSoftwareFailureRecovery) {
  // Dense training with layer-wise streaming; kill the training process
  // (but not the checkpointing process) and restore from the CPU replica.
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);

  auto cfg = trainer_cfg(0.0);
  Trainer trainer(mlp(), cfg);
  ModelState init(trainer.spec());
  init.init_random(cfg.seed);

  LowDiffPlusStrategy::Options opt;
  opt.persist_interval = 6;
  auto strategy = std::make_unique<LowDiffPlusStrategy>(
      store, init, std::make_unique<Adam>(cfg.adam), opt);

  trainer.run(0, 20, nullptr, strategy.get());

  // Software failure: training state lost, replica survives in "CPU
  // memory".  Restore and verify it equals the lost training state.
  const auto replica = strategy->replica_snapshot(19);
  EXPECT_TRUE(replica.bit_equal(trainer.state(0)));

  // Resume from the replica; trajectory matches an uninterrupted run.
  Trainer resumed(mlp(), cfg);
  resumed.set_state(replica);
  resumed.run(20, 15, nullptr);

  Trainer reference(mlp(), cfg);
  reference.run(0, 35, nullptr);
  EXPECT_TRUE(resumed.state(0).bit_equal(reference.state(0)));

  // Hardware failure path: replica lost, recover from persisted storage.
  strategy->flush();
  strategy.reset();
  const auto persisted_iter = store->latest_full();
  ASSERT_TRUE(persisted_iter.has_value());
  EXPECT_EQ(*persisted_iter, 17u);  // persists at iterations 5, 11, 17
  const auto from_disk = store->read_full(*persisted_iter, trainer.spec());
  Trainer replay(mlp(), cfg);
  replay.run(0, *persisted_iter + 1, nullptr);
  EXPECT_TRUE(from_disk.bit_equal(replay.state(0)));
}

TEST(Integration, LossTrajectoryUnaffectedByCheckpointing) {
  // Checkpointing must be observationally transparent to training.
  Trainer plain(mlp(), trainer_cfg(0.05));
  const auto r1 = plain.run(0, 25, nullptr);

  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  LowDiffStrategy::Options opt;
  opt.batch_size = 2;
  opt.full_interval = 5;
  Trainer checkpointed(mlp(), trainer_cfg(0.05));
  auto strategy = std::make_unique<LowDiffStrategy>(store, opt);
  const auto r2 = checkpointed.run(0, 25, strategy.get());
  strategy->flush();
  strategy.reset();

  EXPECT_EQ(r1.losses, r2.losses);
  EXPECT_TRUE(plain.state(0).bit_equal(checkpointed.state(0)));
}

/// Bit-exact crash recovery must hold for every compression scheme the
/// training loop supports — the reuse idea is compressor-agnostic.
class CompressionSchemes : public ::testing::TestWithParam<GradCompression> {};

TEST_P(CompressionSchemes, CrashRecoveryIsBitExact) {
  auto cfg = trainer_cfg(0.05);
  cfg.compression = GetParam();

  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  LowDiffStrategy::Options opt;
  opt.batch_size = 2;
  opt.full_interval = 7;

  Trainer trainer(mlp(), cfg);
  {
    auto strategy = std::make_unique<LowDiffStrategy>(store, opt);
    trainer.run(0, 18, strategy.get());
    strategy->flush();
  }

  std::unique_ptr<Compressor> comp;
  switch (GetParam()) {
    case GradCompression::kTopK:
      comp = std::make_unique<TopKCompressor>(cfg.rho);
      break;
    case GradCompression::kRandomK:
      comp = std::make_unique<RandomKCompressor>(cfg.rho, cfg.seed);
      break;
    case GradCompression::kQuant8:
      comp = std::make_unique<Quant8Compressor>();
      break;
    case GradCompression::kDense:
      comp = std::make_unique<DenseCompressor>();
      break;
  }
  Adam adam(cfg.adam);
  RecoveryEngine engine(trainer.spec(), adam.clone(), std::move(comp));
  const auto recovered = engine.recover_serial(*store);
  EXPECT_TRUE(recovered.bit_equal(trainer.state(0)));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CompressionSchemes,
                         ::testing::Values(GradCompression::kTopK,
                                           GradCompression::kRandomK,
                                           GradCompression::kQuant8),
                         [](const auto& info) {
                           switch (info.param) {
                             case GradCompression::kTopK: return "TopK";
                             case GradCompression::kRandomK: return "RandomK";
                             case GradCompression::kQuant8: return "Quant8";
                             case GradCompression::kDense: return "Dense";
                           }
                           return "?";
                         });

/// Chaos property: crash at an arbitrary iteration (no flush).  Recovery
/// must land on a consistent prefix of training — never a torn state —
/// losing at most the unbatched differential tail.
class CrashPoints : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashPoints, RecoveryLandsOnAValidPrefixState) {
  const std::uint64_t crash_iter = GetParam();
  const std::uint64_t full_interval = 5;
  const std::uint64_t batch = 3;

  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);

  Trainer trainer(mlp(), trainer_cfg(0.05));
  {
    LowDiffStrategy::Options chaos_opt;
    chaos_opt.batch_size = batch;
    chaos_opt.full_interval = full_interval;
    auto strategy = std::make_unique<LowDiffStrategy>(store, chaos_opt);
    trainer.run(0, crash_iter, strategy.get());
    // Let the async pipeline catch up to a deterministic cut, then crash.
    while (strategy->stats().diff_ckpts != crash_iter ||
           store->latest_full() == std::nullopt) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }  // crash: partial batch + any in-queue payloads may be lost

  Adam adam(trainer_cfg(0.05).adam);
  TopKCompressor comp(0.05);
  RecoveryEngine engine(trainer.spec(), adam.clone(), comp.clone());
  RecoveryReport report;
  const auto recovered = engine.recover_serial(*store, &report);

  // Bounded loss: everything up to the last durable artifact survives.
  EXPECT_LT(crash_iter - 1 - report.final_iteration, batch + full_interval);

  // Consistent prefix: identical to a clean run of final_iteration+1 steps.
  Trainer replay(mlp(), trainer_cfg(0.05));
  replay.run(0, report.final_iteration + 1, nullptr);
  EXPECT_TRUE(recovered.bit_equal(replay.state(0)));
}

INSTANTIATE_TEST_SUITE_P(Chaos, CrashPoints,
                         ::testing::Values(6, 9, 14, 23, 31, 40));

TEST(Integration, RecoveredStateBroadcastsToAllRanks) {
  // After recovery, rank 0 broadcasts the restored parameters to the
  // worker group; training then proceeds in lockstep.
  auto cfg = trainer_cfg(0.05);
  cfg.world = 3;
  Trainer trainer(mlp(), cfg);
  trainer.run(0, 10, nullptr);
  const auto snapshot = trainer.state(0).clone();

  // Simulate: only rank 0 has the recovered state; others hold garbage.
  CommGroup comm(3);
  std::vector<ModelState> states;
  for (std::size_t r = 0; r < 3; ++r) {
    ModelState s(trainer.spec());
    if (r == 0) {
      s = snapshot.clone();
    } else {
      s.init_random(999 + r);
    }
    states.push_back(std::move(s));
  }
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      comm.broadcast(r, 0, states[r].params().span());
      comm.broadcast(r, 0, states[r].moment1().span());
      comm.broadcast(r, 0, states[r].moment2().span());
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t r = 1; r < 3; ++r) {
    states[r].set_step(snapshot.step());
    EXPECT_TRUE(states[r].bit_equal(snapshot)) << "rank " << r;
  }
}

TEST(Integration, DiskBackedCheckpointsSurviveProcessBoundary) {
  // FileStorage end-to-end: everything a "new process" needs is on disk.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lowdiff_disk_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  auto cfg = trainer_cfg(0.05);
  const MlpNet probe_net(mlp());
  ModelState final_state(probe_net.spec());
  {
    auto backend = std::make_shared<FileStorage>(dir);
    auto store = std::make_shared<CheckpointStore>(backend);
    Trainer trainer(mlp(), cfg);
    LowDiffStrategy::Options disk_opt;
    disk_opt.batch_size = 3;
    disk_opt.full_interval = 8;
    auto strategy = std::make_unique<LowDiffStrategy>(store, disk_opt);
    trainer.run(0, 20, strategy.get());
    strategy->flush();
    strategy.reset();
    final_state = trainer.state(0).clone();
  }  // "process exits"

  {
    auto backend = std::make_shared<FileStorage>(dir);
    CheckpointStore store(backend);
    Trainer probe(mlp(), cfg);  // provides the spec
    Adam adam(cfg.adam);
    TopKCompressor comp(cfg.rho);
    RecoveryEngine engine(probe.spec(), adam.clone(), comp.clone());
    const auto recovered = engine.recover_serial(store);
    EXPECT_TRUE(recovered.bit_equal(final_state));
  }
  std::filesystem::remove_all(dir);
}

TEST(Integration, CorruptedCheckpointDegradesToLastValidFull) {
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  Trainer trainer(mlp(), trainer_cfg(0.05));
  LowDiffStrategy::Options corrupt_opt;
  corrupt_opt.batch_size = 2;
  corrupt_opt.full_interval = 5;
  auto strategy = std::make_unique<LowDiffStrategy>(store, corrupt_opt);
  trainer.run(0, 10, strategy.get());
  strategy->flush();
  strategy.reset();

  const auto fulls = store->manifest().fulls;
  ASSERT_GE(fulls.size(), 2u) << "test needs an older full to fall back to";

  // Flip a bit in the latest full checkpoint, bypassing the commit protocol
  // (the marker still promises the original CRC — silent media corruption).
  const auto key = CheckpointStore::full_key(*store->latest_full());
  auto bytes = *mem->read(key);
  bytes[bytes.size() / 2] ^= std::byte{0x01};
  mem->write(key, bytes);

  // Recovery must detect the corruption via CRC and degrade to the previous
  // valid full checkpoint instead of throwing or using the bad state.
  TopKCompressor comp(0.05);
  Adam adam(trainer_cfg(0.05).adam);
  RecoveryEngine engine(trainer.spec(), adam.clone(), comp.clone());
  RecoveryReport report;
  const auto recovered = engine.recover_serial(*store, &report);

  EXPECT_EQ(report.corrupt_fulls_skipped, 1u);
  EXPECT_GE(report.final_iteration, fulls[fulls.size() - 2]);

  // The degraded state is still a *correct* state: bit-equal to a clean run
  // executed up to the iteration recovery reports.
  Trainer replay(mlp(), trainer_cfg(0.05));
  replay.run(0, report.final_iteration + 1, nullptr);
  EXPECT_TRUE(recovered.bit_equal(replay.state(0)));
}

}  // namespace
}  // namespace lowdiff

namespace lowdiff {
namespace {

TEST(Integration, RepeatedCrashRecoverCyclesStayOnTrajectory) {
  // Four crash/recover cycles; after each, training resumes from the
  // recovered state.  The final state must be *identical* to a run that
  // re-executed only the lost iterations — i.e., repeated failures degrade
  // time, never correctness.
  const auto cfg = trainer_cfg(0.05);
  auto mem = std::make_shared<MemStorage>();
  auto store = std::make_shared<CheckpointStore>(mem);
  LowDiffStrategy::Options opt;
  opt.batch_size = 2;
  opt.full_interval = 6;

  Adam adam(cfg.adam);
  TopKCompressor comp(0.05);

  std::uint64_t position = 0;  // next iteration to execute
  Trainer trainer(mlp(), cfg);
  for (int cycle = 0; cycle < 4; ++cycle) {
    {
      auto strategy = std::make_unique<LowDiffStrategy>(store, opt);
      trainer.run(position, 11, strategy.get());
      strategy->flush();  // cycle boundary is durable
    }
    // Crash: a fresh "process" recovers from storage.
    RecoveryEngine engine(trainer.spec(), adam.clone(), comp.clone());
    RecoveryReport report;
    const auto recovered = engine.recover_serial(*store, &report);
    position = report.final_iteration + 1;
    trainer.set_state(recovered);
  }

  Trainer reference(mlp(), cfg);
  reference.run(0, position, nullptr);
  EXPECT_TRUE(trainer.state(0).bit_equal(reference.state(0)));
  EXPECT_EQ(position, 44u);  // flushed boundaries lose nothing here
}

}  // namespace
}  // namespace lowdiff
