#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "compress/dense.h"
#include "compress/topk.h"
#include "core/checkpoint_store.h"
#include "core/recovery.h"
#include "optim/adam.h"
#include "optim/sgd.h"
#include "sim/cluster.h"
#include "storage/atomic_commit.h"
#include "storage/mem_storage.h"
#include "storage/serializer.h"
#include "support/writer_schedule.h"
#include "tensor/ops.h"
#include "tier/placement.h"
#include "tier/replicator.h"
#include "tier/tier_recovery.h"
#include "tier/topology.h"

namespace lowdiff {
namespace {

ModelSpec spec_of(std::size_t n) {
  ModelSpec spec;
  spec.name = "flat";
  spec.layers = {{"w", {n}}};
  return spec;
}

/// Simulates `iters` training iterations with gradient reuse: every
/// synchronized compressed gradient goes both into the optimizer (dense,
/// after decompression) and into the store as a differential checkpoint.
/// Returns the final training state.
ModelState train_with_reuse(CheckpointStore& store, const ModelSpec& spec,
                            const Optimizer& opt, const Compressor& comp,
                            std::uint64_t full_at, std::uint64_t iters,
                            std::uint64_t seed) {
  ModelState state(spec);
  state.init_random(seed);
  Tensor grad(spec.param_count());
  Tensor dense(spec.param_count());
  Xoshiro256 rng(seed * 31 + 1);
  for (std::uint64_t t = 0; t < iters; ++t) {
    ops::fill_normal(grad.span(), rng, 0.5f);
    const auto payload = comp.compress(grad.cspan(), t);
    comp.decompress(payload, dense.span());
    opt.step(state, dense.cspan());
    if (t == full_at) {
      store.put_full(t, state);
    } else if (t > full_at) {
      store.put_diff(payload);
    }
  }
  return state;
}

TEST(Recovery, SerialReplayIsBitExact) {
  const auto spec = spec_of(400);
  auto mem = std::make_shared<MemStorage>();
  CheckpointStore store(mem);
  Adam adam;
  TopKCompressor comp(0.05);
  const auto trained =
      train_with_reuse(store, spec, adam, comp, /*full_at=*/10, /*iters=*/30, 7);

  RecoveryEngine engine(spec, adam.clone(), comp.clone());
  RecoveryReport report;
  const auto recovered = engine.recover_serial(store, &report);

  EXPECT_TRUE(trained.bit_equal(recovered));  // Finding 1, exactly
  EXPECT_EQ(report.full_iteration, 10u);
  EXPECT_EQ(report.diffs_replayed, 19u);
  EXPECT_EQ(report.final_iteration, 29u);
}

TEST(Recovery, ParallelEqualsSerial) {
  const auto spec = spec_of(300);
  auto mem = std::make_shared<MemStorage>();
  CheckpointStore store(mem);
  Adam adam;
  TopKCompressor comp(0.1);
  train_with_reuse(store, spec, adam, comp, 5, 40, 3);

  RecoveryEngine engine(spec, adam.clone(), comp.clone());
  ThreadPool pool(4);
  RecoveryReport serial_report, parallel_report;
  const auto serial = engine.recover_serial(store, &serial_report);
  const auto parallel = engine.recover_parallel(store, pool, &parallel_report);
  EXPECT_TRUE(serial.bit_equal(parallel));
  EXPECT_EQ(serial_report.final_iteration, parallel_report.final_iteration);
}

TEST(Recovery, ParallelAdditiveEqualsSerialForPlainSgd) {
  const auto spec = spec_of(256);
  auto mem = std::make_shared<MemStorage>();
  CheckpointStore store(mem);
  Sgd sgd(SgdConfig{.lr = 0.05f, .momentum = 0.0f});
  TopKCompressor comp(0.1);
  const auto trained = train_with_reuse(store, spec, sgd, comp, 3, 35, 11);

  RecoveryEngine engine(spec, sgd.clone(), comp.clone());
  ThreadPool pool(4);
  RecoveryReport report;
  const auto recovered =
      engine.recover_parallel_additive(store, pool, 0.05f, &report);

  // Additive merge reorders float additions, so compare numerically.
  EXPECT_EQ(recovered.step(), trained.step());
  EXPECT_LT(ops::max_abs_diff(recovered.params().cspan(), trained.params().cspan()),
            1e-5f);
  // 31 diffs -> ceil(log2(31)) = 5 pairwise merge rounds (Fig. 7).
  EXPECT_EQ(report.diffs_replayed, 31u);
  EXPECT_EQ(report.merge_rounds, 5u);
}

TEST(Recovery, ReportAccountsEveryByteReadAndItsSource) {
  const auto spec = spec_of(350);
  auto mem = std::make_shared<MemStorage>();
  CheckpointStore store(mem);
  Adam adam;
  TopKCompressor comp(0.05);
  const auto trained =
      train_with_reuse(store, spec, adam, comp, /*full_at=*/2, /*iters=*/25, 19);

  const auto before = mem->stats();
  RecoveryEngine engine(spec, adam.clone(), comp.clone());
  RecoveryReport report;
  const auto recovered = engine.recover_serial(store, &report);
  EXPECT_TRUE(trained.bit_equal(recovered));

  // bytes_read is the backend's own delta (markers included), attributed
  // to the single flat source "storage" with one read per record.
  EXPECT_EQ(report.bytes_read, mem->stats().bytes_read - before.bytes_read);
  EXPECT_GT(report.bytes_read, 0u);
  EXPECT_GT(report.read_seconds, 0.0);
  ASSERT_EQ(report.read_sources.size(), 1u);
  const auto& source = report.read_sources.at("storage");
  EXPECT_EQ(source.bytes, report.bytes_read);
  EXPECT_EQ(source.reads, report.diffs_replayed + 1);  // diffs + the full
  EXPECT_EQ(source.seconds, report.read_seconds);
}

TEST(Recovery, ParallelReportAccountsBytesReadLikeSerial) {
  const auto spec = spec_of(280);
  auto mem = std::make_shared<MemStorage>();
  CheckpointStore store(mem);
  Adam adam;
  TopKCompressor comp(0.1);
  train_with_reuse(store, spec, adam, comp, 3, 30, 23);

  RecoveryEngine engine(spec, adam.clone(), comp.clone());
  ThreadPool pool(4);
  RecoveryReport serial_report, parallel_report;
  (void)engine.recover_serial(store, &serial_report);
  (void)engine.recover_parallel(store, pool, &parallel_report);

  // Same records, same bytes — overlap changes wall time, not I/O volume.
  EXPECT_EQ(parallel_report.bytes_read, serial_report.bytes_read);
  EXPECT_GT(parallel_report.read_seconds, 0.0);
  ASSERT_EQ(parallel_report.read_sources.size(), 1u);
  EXPECT_EQ(parallel_report.read_sources.at("storage").bytes,
            parallel_report.bytes_read);
  EXPECT_EQ(parallel_report.read_sources.at("storage").reads,
            parallel_report.diffs_replayed + 1);
}

TEST(Recovery, NoDiffsRecoversFullOnly) {
  const auto spec = spec_of(64);
  auto mem = std::make_shared<MemStorage>();
  CheckpointStore store(mem);
  ModelState state(spec);
  state.init_random(1);
  state.set_step(42);
  store.put_full(41, state);

  Adam adam;
  TopKCompressor comp(0.1);
  RecoveryEngine engine(spec, adam.clone(), comp.clone());
  RecoveryReport report;
  const auto recovered = engine.recover_serial(store, &report);
  EXPECT_TRUE(state.bit_equal(recovered));
  EXPECT_EQ(report.diffs_replayed, 0u);
}

TEST(Recovery, MissingFullCheckpointThrows) {
  auto mem = std::make_shared<MemStorage>();
  CheckpointStore store(mem);
  Adam adam;
  TopKCompressor comp(0.1);
  RecoveryEngine engine(spec_of(10), adam.clone(), comp.clone());
  EXPECT_THROW(engine.recover_serial(store), Error);
  ThreadPool pool(2);
  EXPECT_THROW(engine.recover_parallel(store, pool), Error);
}

TEST(Recovery, BatchedDiffsReplayIdenticallyToStandalone) {
  // The same payload stream stored as batches vs standalone diffs must
  // recover to the same state — batching is a write optimization only.
  const auto spec = spec_of(200);
  Adam adam;
  TopKCompressor comp(0.1);

  auto mem_single = std::make_shared<MemStorage>();
  CheckpointStore store_single(mem_single);
  const auto trained =
      train_with_reuse(store_single, spec, adam, comp, 4, 24, 9);

  // Rebuild the same stream into batches of 3.
  auto mem_batched = std::make_shared<MemStorage>();
  CheckpointStore store_batched(mem_batched);
  store_batched.put_full(4, store_single.read_full(4, spec));
  BatchedGrad batch;
  for (const auto& record : store_single.manifest().diffs) {
    auto payloads = store_single.try_read_diffs(record);
    ASSERT_TRUE(payloads.ok());
    for (auto& payload : *payloads) {
      if (batch.members.empty()) batch.first_iteration = payload.iteration;
      batch.last_iteration = payload.iteration;
      batch.members.push_back(std::move(payload));
      if (batch.members.size() == 3) {
        store_batched.put_batch(batch);
        batch = BatchedGrad{};
      }
    }
  }
  if (!batch.members.empty()) store_batched.put_batch(batch);

  RecoveryEngine engine(spec, adam.clone(), comp.clone());
  const auto recovered = engine.recover_serial(store_batched);
  EXPECT_TRUE(trained.bit_equal(recovered));
}

class RecoveryDiffCounts : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoveryDiffCounts, ParallelEqualsSerialForAnyCount) {
  const std::uint64_t iters = GetParam();
  const auto spec = spec_of(120);
  auto mem = std::make_shared<MemStorage>();
  CheckpointStore store(mem);
  Adam adam;
  TopKCompressor comp(0.2);
  train_with_reuse(store, spec, adam, comp, 0, iters, 13);

  RecoveryEngine engine(spec, adam.clone(), comp.clone());
  ThreadPool pool(3);
  EXPECT_TRUE(
      engine.recover_serial(store).bit_equal(engine.recover_parallel(store, pool)));
}

INSTANTIATE_TEST_SUITE_P(Counts, RecoveryDiffCounts,
                         ::testing::Values(1, 2, 3, 5, 9, 17, 33));

// --- LowDiff-shaped stores: batches, a straddled full, holes ----------------

constexpr std::uint64_t kShapedFullAt = 10;
constexpr std::uint64_t kShapedIters = 30;

/// Trains kShapedIters iterations with gradient reuse, the way LowDiff
/// persists them: a full checkpoint at kShapedFullAt and every iteration's
/// payload in differential records of `per_record` iterations aligned to
/// iteration 0 (one `diff/` record each for 1; with 3, batch/9_11 straddles
/// the full).  Records wholly at or before the full are written too.  The
/// record holding iteration `hole`, if given, never commits: its data
/// lands, its marker does not — what group commit leaves when that
/// record's write fails.  Returns the training state after each iteration.
std::vector<ModelState> train_lowdiff_shaped(
    CheckpointStore& store, const ModelSpec& spec, const Optimizer& opt,
    const Compressor& comp, std::uint64_t per_record,
    std::optional<std::uint64_t> hole = std::nullopt) {
  ModelState state(spec);
  state.init_random(17);
  Tensor grad(spec.param_count());
  Tensor dense(spec.param_count());
  Xoshiro256 rng(29);
  std::vector<ModelState> states;
  BatchedGrad batch;
  for (std::uint64_t t = 0; t < kShapedIters; ++t) {
    ops::fill_normal(grad.span(), rng, 0.5f);
    auto payload = comp.compress(grad.cspan(), t);
    comp.decompress(payload, dense.span());
    opt.step(state, dense.cspan());
    states.push_back(state);
    if (t == kShapedFullAt) store.put_full(t, state);

    if (batch.members.empty()) batch.first_iteration = t;
    batch.last_iteration = t;
    batch.members.push_back(std::move(payload));
    if (batch.members.size() < per_record) continue;
    const std::string key =
        per_record == 1 ? CheckpointStore::diff_key(t)
                        : CheckpointStore::batch_key(batch.first_iteration, t);
    EXPECT_TRUE((per_record == 1 ? store.put_diff(batch.members.front())
                                 : store.put_batch(batch))
                    .ok());
    if (hole.has_value() && batch.first_iteration <= *hole && *hole <= t) {
      store.backend().remove(commit_marker_key(key));
    }
    batch = BatchedGrad{};
  }
  return states;
}

/// A two-server replicated store, so the tier-aware engine reads the same
/// records as the single-store engines.
std::shared_ptr<tier::Replicator> two_server_replicas() {
  sim::ClusterSpec cluster;
  cluster.num_gpus = 2 * cluster.gpus_per_server;
  tier::TierSimOptions opts;
  opts.time_scale = 1e-7;  // link accounting without sleeping for it
  return std::make_shared<tier::Replicator>(
      tier::TierTopology::for_cluster(cluster, opts),
      tier::PlacementPolicy::parse("2@local,peer"), tier::ReplicatorOptions{});
}

class MissingDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MissingDifferential, EndsTheChainAtTheHole) {
  // Iteration 15 never committed (diff/15, or batch/15_17 with batches of
  // 3), but later records did.  Every recovery path must stop at 14 —
  // replaying 16..29 on top of 14 would yield a state training never had.
  const std::uint64_t per_record = GetParam();
  const auto spec = spec_of(240);
  TopKCompressor comp(0.1);
  set_log_level(LogLevel::kOff);  // recovery logs the hole

  Adam adam;
  auto replicas = two_server_replicas();
  CheckpointStore store(replicas);
  const auto states =
      train_lowdiff_shaped(store, spec, adam, comp, per_record, /*hole=*/15);

  RecoveryEngine engine(spec, adam.clone(), comp.clone());
  tier::TierAwareRecoveryEngine tier_engine(spec, adam.clone(), comp.clone());
  ThreadPool pool(3);
  RecoveryReport serial_report, parallel_report, tier_report;
  const ModelState recovered[] = {
      engine.recover_serial(store, &serial_report),
      engine.recover_parallel(store, pool, &parallel_report),
      tier_engine.recover(replicas, &tier_report)};
  const RecoveryReport* reports[] = {&serial_report, &parallel_report,
                                     &tier_report};
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("path " + std::to_string(i));
    EXPECT_EQ(reports[i]->full_iteration, kShapedFullAt);
    EXPECT_EQ(reports[i]->final_iteration, 14u);
    EXPECT_EQ(reports[i]->diffs_replayed, 4u);
    EXPECT_EQ(reports[i]->corrupt_diffs_skipped, 0u);
    EXPECT_TRUE(recovered[i].bit_equal(states[14]));
  }

  // The additive path collects the same chain.
  const SgdConfig sgd_cfg{.lr = 0.05f, .momentum = 0.0f};
  Sgd sgd(sgd_cfg);
  CheckpointStore sgd_store(std::make_shared<MemStorage>());
  const auto sgd_states =
      train_lowdiff_shaped(sgd_store, spec, sgd, comp, per_record, /*hole=*/15);
  RecoveryEngine sgd_engine(spec, sgd.clone(), comp.clone());
  RecoveryReport additive_report;
  const auto additive = sgd_engine.recover_parallel_additive(
      sgd_store, pool, sgd_cfg.lr, &additive_report);
  EXPECT_EQ(additive_report.final_iteration, 14u);
  EXPECT_EQ(additive_report.diffs_replayed, 4u);
  EXPECT_EQ(additive.step(), sgd_states[14].step());
  EXPECT_LT(ops::max_abs_diff(additive.params().cspan(),
                              sgd_states[14].params().cspan()),
            1e-5f);
  set_log_level(LogLevel::kWarn);
}

INSTANTIATE_TEST_SUITE_P(RecordSizes, MissingDifferential,
                         ::testing::Values(1, 3), [](const auto& info) {
                           return info.param == 1 ? std::string("PerIteration")
                                                  : std::string("BatchesOf3");
                         });

/// A committed record in place of the one holding iteration 15, framed and
/// checksummed correctly, but holding a payload no compressor writes.
enum class Undecodable {
  kIndexBeyondDenseSize,  ///< diff/15, its last index == dense_size
  kUnknownScheme,         ///< diff/15, scheme byte 4
  kBatchCountBeyondBytes, ///< batch/15_17, member count 2^62
};

class UndecodableDifferential : public ::testing::TestWithParam<Undecodable> {};

TEST_P(UndecodableDifferential, ReadsAsCorruptedAndEndsTheChain) {
  const Undecodable fault = GetParam();
  const bool batched = fault == Undecodable::kBatchCountBeyondBytes;
  const auto spec = spec_of(240);
  TopKCompressor comp(0.1);
  set_log_level(LogLevel::kOff);  // recovery logs the record

  Adam adam;
  CheckpointStore store(std::make_shared<MemStorage>());
  const auto states = train_lowdiff_shaped(store, spec, adam, comp, batched ? 3 : 1);

  const CheckpointStore::DiffRecord record =
      batched ? CheckpointStore::DiffRecord{15, 17, CheckpointStore::batch_key(15, 17)}
              : CheckpointStore::DiffRecord{15, 15, CheckpointStore::diff_key(15)};
  BatchedGrad batch;
  batch.first_iteration = record.first;
  batch.last_iteration = record.last;
  batch.members = *store.try_read_diffs(record);
  std::vector<std::byte> bytes;
  if (batched) {
    bytes = batch.serialize();
    const std::uint64_t count = std::uint64_t{1} << 62;
    std::memcpy(bytes.data() + 16, &count, sizeof(count));
    bytes = frame(RecordType::kBatchedDiff, bytes);
  } else {
    CompressedGrad& payload = batch.members.front();
    if (fault == Undecodable::kIndexBeyondDenseSize) {
      payload.indices.back() = static_cast<std::uint32_t>(payload.dense_size);
    }
    bytes = payload.serialize();
    if (fault == Undecodable::kUnknownScheme) bytes[0] = std::byte{4};
    bytes = frame(RecordType::kDiffCheckpoint, bytes);
  }
  ASSERT_TRUE(store.put_raw(record.key, bytes).ok());
  EXPECT_EQ(store.try_read_diffs(record).status().code(), ErrorCode::kCorrupted);

  RecoveryEngine engine(spec, adam.clone(), comp.clone());
  ThreadPool pool(3);
  RecoveryReport serial_report, parallel_report;
  const ModelState recovered[] = {
      engine.recover_serial(store, &serial_report),
      engine.recover_parallel(store, pool, &parallel_report)};
  const RecoveryReport* reports[] = {&serial_report, &parallel_report};
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE("path " + std::to_string(i));
    EXPECT_EQ(reports[i]->final_iteration, 14u);
    EXPECT_EQ(reports[i]->diffs_replayed, 4u);
    EXPECT_EQ(reports[i]->corrupt_diffs_skipped, record.last - record.first + 1);
    EXPECT_TRUE(recovered[i].bit_equal(states[14]));
  }
  set_log_level(LogLevel::kWarn);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, UndecodableDifferential,
    ::testing::Values(Undecodable::kIndexBeyondDenseSize, Undecodable::kUnknownScheme,
                      Undecodable::kBatchCountBeyondBytes),
    [](const auto& info) {
      switch (info.param) {
        case Undecodable::kIndexBeyondDenseSize: return std::string("IndexBeyondDenseSize");
        case Undecodable::kUnknownScheme: return std::string("UnknownScheme");
        case Undecodable::kBatchCountBeyondBytes: return std::string("BatchCountBeyondBytes");
      }
      return std::string("?");
    });

/// A committed differential that decodes but does not fit the engine.
enum class Misfit {
  kDenseSizeMismatch,  ///< dense_size 241 on a 240-parameter model, index 240
  kOtherScheme,        ///< a dense payload for a top-k engine
};

class MisfitDifferential : public ::testing::TestWithParam<Misfit> {};

TEST_P(MisfitDifferential, CountsAsCorruptAndEndsTheChain) {
  // The base at iteration 0, then one differential every entry point must
  // refuse to replay: it would throw in decompress, or write past the end
  // of the parameters in the additive apply.
  const auto spec = spec_of(240);
  TopKCompressor comp(0.1);
  set_log_level(LogLevel::kOff);  // recovery logs the payload

  CheckpointStore store(std::make_shared<MemStorage>());
  ModelState base(spec);
  base.init_random(5);
  ASSERT_TRUE(store.put_full(0, base).ok());

  CompressedGrad payload;
  if (GetParam() == Misfit::kDenseSizeMismatch) {
    Tensor grad(spec.param_count() + 1);
    Xoshiro256 rng(9);
    ops::fill_normal(grad.span(), rng, 0.5f);
    grad.span()[240] = 100.0f;  // the largest, so top-k keeps index 240
    payload = comp.compress(grad.cspan(), 1);
    ASSERT_EQ(payload.indices.back(), 240u);
  } else {
    Tensor grad(spec.param_count());
    payload = DenseCompressor().compress(grad.cspan(), 1);
  }
  ASSERT_TRUE(store.put_diff(payload).ok());
  ASSERT_TRUE(store.try_read_diffs({1, 1, CheckpointStore::diff_key(1)}).ok());

  const SgdConfig sgd_cfg{.lr = 0.05f, .momentum = 0.0f};
  RecoveryEngine engine(spec, std::make_unique<Sgd>(sgd_cfg), comp.clone());
  ThreadPool pool(3);
  RecoveryReport reports[3];
  const ModelState recovered[] = {
      engine.recover_serial(store, &reports[0]),
      engine.recover_parallel(store, pool, &reports[1]),
      engine.recover_parallel_additive(store, pool, sgd_cfg.lr, &reports[2])};
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("path " + std::to_string(i));
    EXPECT_EQ(reports[i].final_iteration, 0u);
    EXPECT_EQ(reports[i].diffs_replayed, 0u);
    EXPECT_EQ(reports[i].corrupt_diffs_skipped, 1u);
    EXPECT_TRUE(recovered[i].bit_equal(base));
  }
  set_log_level(LogLevel::kWarn);
}

INSTANTIATE_TEST_SUITE_P(Payloads, MisfitDifferential,
                         ::testing::Values(Misfit::kDenseSizeMismatch,
                                           Misfit::kOtherScheme),
                         [](const auto& info) {
                           return info.param == Misfit::kDenseSizeMismatch
                                      ? std::string("DenseSizeMismatch")
                                      : std::string("OtherScheme");
                         });

/// Counts list() and read() calls on their way to the wrapped backend.
class CountingStorage final : public test_support::ForwardingStorage {
 public:
  using ForwardingStorage::ForwardingStorage;

  Result<std::vector<std::byte>> read(const std::string& key) const override {
    ++reads;
    return inner_->read(key);
  }
  std::vector<std::string> list() const override {
    ++lists;
    return inner_->list();
  }

  mutable std::atomic<std::uint64_t> reads{0};
  mutable std::atomic<std::uint64_t> lists{0};
};

TEST(RecoveryReads, OneScanAndEachRecordAfterTheBaseReadOnce) {
  // Batches of 3 over iterations 0..29 with the full at 10: batch/9_11
  // straddles the base, 0_2..6_8 lie wholly before it, and seven records
  // (9_11 .. 27_29) hold iterations after it.
  const auto spec = spec_of(160);
  auto mem = std::make_shared<MemStorage>();
  auto counting = std::make_shared<CountingStorage>(mem);
  CheckpointStore store(counting);
  Adam adam;
  TopKCompressor comp(0.1);
  const auto states = train_lowdiff_shaped(store, spec, adam, comp, 3);
  constexpr std::uint64_t kRecordsAfterBase = 7;

  RecoveryEngine engine(spec, adam.clone(), comp.clone());
  ThreadPool pool(3);
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    counting->reads = 0;
    counting->lists = 0;
    RecoveryReport report;
    const auto recovered = parallel ? engine.recover_parallel(store, pool, &report)
                                    : engine.recover_serial(store, &report);
    EXPECT_TRUE(recovered.bit_equal(states.back()));
    EXPECT_EQ(report.final_iteration, kShapedIters - 1);
    EXPECT_EQ(counting->lists.load(), 1u);
    // Marker + data for the base, then for each record after it.
    EXPECT_EQ(counting->reads.load(), 2 + 2 * kRecordsAfterBase);
    EXPECT_EQ(report.read_sources.at("storage").reads, 1 + kRecordsAfterBase);
  }

  // A corrupt straddling batch counts only its iteration after the base.
  set_log_level(LogLevel::kOff);
  const auto key = CheckpointStore::batch_key(9, 11);
  auto bytes = *mem->read(key);
  bytes[bytes.size() / 2] ^= std::byte{0x20};
  mem->write(key, bytes);
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    counting->reads = 0;
    counting->lists = 0;
    RecoveryReport report;
    const auto recovered = parallel ? engine.recover_parallel(store, pool, &report)
                                    : engine.recover_serial(store, &report);
    EXPECT_TRUE(recovered.bit_equal(states[kShapedFullAt]));
    EXPECT_EQ(report.final_iteration, kShapedFullAt);
    EXPECT_EQ(report.diffs_replayed, 0u);
    EXPECT_EQ(report.corrupt_diffs_skipped, 1u);
    EXPECT_EQ(counting->lists.load(), 1u);
    EXPECT_EQ(counting->reads.load(), 2 + 2 * kRecordsAfterBase);
  }
  set_log_level(LogLevel::kWarn);
}

}  // namespace
}  // namespace lowdiff
