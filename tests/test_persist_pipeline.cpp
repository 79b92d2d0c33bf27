/// \file test_persist_pipeline.cpp
/// The persist path: AsyncWriter's group commit (data of every queued
/// record → one sync → markers in submission order) against per-record
/// committed_write — op schedules, crash boundaries, fault sweeps, flush
/// liveness and all six strategies' stores.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "compress/dense.h"
#include "compress/topk.h"
#include "core/checkpoint_store.h"
#include "core/recovery.h"
#include "core/strategies.h"
#include "obs/metrics.h"
#include "optim/adam.h"
#include "storage/async_writer.h"
#include "storage/atomic_commit.h"
#include "storage/deadline.h"
#include "storage/fault_injection.h"
#include "storage/mem_storage.h"
#include "storage/throttled.h"
#include "support/crashable.h"
#include "support/kill_points.h"
#include "support/writer_schedule.h"
#include "tensor/ops.h"

namespace lowdiff {
namespace {

using test_support::drain;
using test_support::exhaustive_kill_points;
using test_support::ForwardingStorage;
using test_support::HoldingStorage;
using test_support::OnResult;
using test_support::OpLogStorage;
using test_support::Records;
using test_support::submit_backlog;

RetryPolicy fast_retry(int attempts = 4) {
  RetryPolicy p;
  p.max_attempts = attempts;
  p.base_delay_sec = 1e-6;
  p.max_delay_sec = 1e-5;
  return p;
}

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n);
  Xoshiro256 rng(seed);
  for (auto& b : out) b = static_cast<std::byte>(rng() & 0xff);
  return out;
}

/// Full backend image, key → bytes.  The differential suite's equality
/// relation: two persist schedules are equivalent iff their dumps match.
std::map<std::string, std::vector<std::byte>> dump(const StorageBackend& b) {
  std::map<std::string, std::vector<std::byte>> out;
  for (const auto& key : b.list()) out.emplace(key, *b.read(key));
  return out;
}

std::size_t marker_count(const StorageBackend& b) {
  std::size_t n = 0;
  for (const auto& key : b.list()) n += is_commit_marker(key) ? 1 : 0;
  return n;
}

std::size_t marker_count_of(
    const std::map<std::string, std::vector<std::byte>>& d) {
  std::size_t n = 0;
  for (const auto& [key, bytes] : d) n += is_commit_marker(key) ? 1 : 0;
  return n;
}

ModelSpec spec_of(std::size_t n) {
  ModelSpec spec;
  spec.name = "flat";
  spec.layers = {{"w0", {n / 2}}, {"w1", {n - n / 2}}};
  return spec;
}

// ===========================================================================
// CrashableStorage: the write-back crash model the matrix is built on.
// ===========================================================================

TEST(CrashableStorage, WritesAreVolatileUntilSync) {
  auto crashable =
      std::make_shared<CrashableStorage>(std::make_shared<MemStorage>());
  ASSERT_TRUE(crashable->write("a", pattern_bytes(16, 1)).ok());
  // Visible through the cache view...
  EXPECT_TRUE(crashable->exists("a"));
  EXPECT_EQ(*crashable->read("a"), pattern_bytes(16, 1));
  // ...but not durable yet.
  EXPECT_FALSE(crashable->durable_snapshot()->exists("a"));

  ASSERT_TRUE(crashable->sync().ok());
  EXPECT_EQ(*crashable->durable_snapshot()->read("a"), pattern_bytes(16, 1));
}

TEST(CrashableStorage, CrashDropsVolatileStateAndKillsTheBackend) {
  auto crashable =
      std::make_shared<CrashableStorage>(std::make_shared<MemStorage>());
  ASSERT_TRUE(crashable->write("durable", pattern_bytes(8, 2)).ok());
  ASSERT_TRUE(crashable->sync().ok());
  ASSERT_TRUE(crashable->write("volatile", pattern_bytes(8, 3)).ok());

  crashable->crash();
  EXPECT_TRUE(crashable->crashed());
  EXPECT_EQ(crashable->write("x", pattern_bytes(1, 4)).code(),
            ErrorCode::kUnavailable);
  EXPECT_FALSE(crashable->sync().ok());
  EXPECT_FALSE(crashable->read("durable").ok());  // dead until reopen

  const auto snap = crashable->durable_snapshot();
  EXPECT_TRUE(snap->exists("durable"));
  EXPECT_FALSE(snap->exists("volatile"));

  crashable->reopen();
  EXPECT_FALSE(crashable->crashed());
  EXPECT_EQ(*crashable->read("durable"), pattern_bytes(8, 2));
  EXPECT_FALSE(crashable->exists("volatile"));  // reboot lost the cache
}

TEST(CrashableStorage, ArmedCrashFiresAfterExactlyNOps) {
  auto crashable =
      std::make_shared<CrashableStorage>(std::make_shared<MemStorage>());
  crashable->set_crash_after_ops(2);
  EXPECT_TRUE(crashable->write("one", pattern_bytes(4, 5)).ok());  // op 1
  EXPECT_TRUE(crashable->sync().ok());                             // op 2 → crash
  EXPECT_TRUE(crashable->crashed());
  EXPECT_EQ(crashable->write("three", pattern_bytes(4, 6)).code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(crashable->applied_ops(), 2u);
  EXPECT_TRUE(crashable->durable_snapshot()->exists("one"));

  // Arming with 0 crashes *before* the next op.
  auto immediate =
      std::make_shared<CrashableStorage>(std::make_shared<MemStorage>());
  immediate->set_crash_after_ops(0);
  EXPECT_EQ(immediate->write("k", pattern_bytes(4, 7)).code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(immediate->applied_ops(), 0u);
}

// ===========================================================================
// Group commit: the writer's op schedule, its counters and its callbacks.
// ===========================================================================

Records make_records(std::size_t n, std::size_t bytes_each, std::uint64_t seed) {
  Records records;
  for (std::size_t i = 0; i < n; ++i) {
    records.emplace_back("rec/" + std::to_string(i),
                         pattern_bytes(bytes_each, seed + i));
  }
  return records;
}

AsyncWriter::Options committed_options(std::size_t depth, int attempts = 4) {
  AsyncWriter::Options opt;
  opt.max_pending = depth;
  opt.retry = fast_retry(attempts);
  opt.committed = true;
  return opt;
}

struct WriterCounters {
  std::uint64_t jobs = 0;
  std::uint64_t syncs = 0;

  static WriterCounters now() {
    auto& reg = obs::Registry::global();
    return {reg.counter("writer.jobs_total").value(),
            reg.counter("writer.syncs_total").value()};
  }
  WriterCounters since(const WriterCounters& before) const {
    return {jobs - before.jobs, syncs - before.syncs};
  }
};

TEST(GroupCommit, IdleWriterIssuesDataSyncMarkerPerRecord) {
  const auto records = make_records(5, 64, 10);
  auto log = std::make_shared<OpLogStorage>(std::make_shared<MemStorage>());
  const auto before = WriterCounters::now();
  {
    AsyncWriter writer(log, committed_options(/*depth=*/8));
    for (const auto& [key, bytes] : records) {
      ASSERT_TRUE(writer.submit(key, bytes));
      writer.flush();  // idle between records: every group holds one
    }
  }
  const auto delta = WriterCounters::now().since(before);

  std::vector<std::string> expected;
  for (const auto& [key, bytes] : records) {
    expected.push_back("write " + key);
    expected.push_back("sync");
    expected.push_back("write " + commit_marker_key(key));
  }
  EXPECT_EQ(log->ops(), expected);
  EXPECT_EQ(delta.jobs, records.size());
  EXPECT_EQ(delta.syncs, delta.jobs);
}

TEST(GroupCommit, BacklogCommitsWithFewerSyncsThanRecords) {
  const auto records = make_records(6, 64, 20);
  auto log = std::make_shared<OpLogStorage>(std::make_shared<MemStorage>());
  auto held = std::make_shared<HoldingStorage>(log, records[0].first);
  const auto before = WriterCounters::now();
  {
    AsyncWriter writer(held, committed_options(/*depth=*/8));
    ASSERT_TRUE(submit_backlog(writer, *held, records));
    EXPECT_EQ(writer.failed_jobs(), 0u);
  }
  const auto delta = WriterCounters::now().since(before);

  // {0} alone, then {1..5}: all data, one sync, all markers in order.
  std::vector<std::string> expected = {"write rec/0", "sync",
                                       "write " + commit_marker_key("rec/0")};
  for (std::size_t i = 1; i < records.size(); ++i) {
    expected.push_back("write " + records[i].first);
  }
  expected.push_back("sync");
  for (std::size_t i = 1; i < records.size(); ++i) {
    expected.push_back("write " + commit_marker_key(records[i].first));
  }
  EXPECT_EQ(log->ops(), expected);
  EXPECT_EQ(delta.jobs, records.size());
  EXPECT_EQ(delta.syncs, 2u);
  EXPECT_LT(delta.syncs, delta.jobs);
}

/// Fails the data write of one key with a non-retryable error.
class FailOneKeyStorage final : public ForwardingStorage {
 public:
  FailOneKeyStorage(std::shared_ptr<StorageBackend> inner, std::string key)
      : ForwardingStorage(std::move(inner)), key_(std::move(key)) {}
  Status write(const std::string& key, std::span<const std::byte> bytes) override {
    if (key == key_) return {ErrorCode::kCorrupted, "injected: " + key};
    return inner_->write(key, bytes);
  }

 private:
  std::string key_;
};

TEST(GroupCommit, FailedDataWriteDropsOnlyThatRecordsMarker) {
  const auto records = make_records(4, 64, 30);
  auto mem = std::make_shared<MemStorage>();
  FailOneKeyStorage backend(mem, "rec/2");
  std::vector<GroupRecord> group;
  for (const auto& [key, bytes] : records) group.push_back({&key, bytes});
  std::vector<Status> status(group.size());
  Xoshiro256 rng = fast_retry().make_rng(1);

  EXPECT_EQ(committed_write_group(backend, group, status, fast_retry(), rng), 1u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(status[i].ok(), i != 2) << records[i].first;
    EXPECT_EQ(is_committed(*mem, records[i].first), i != 2) << records[i].first;
  }
  EXPECT_EQ(status[2].code(), ErrorCode::kCorrupted);

  // A group whose every data write fails issues no sync at all — the
  // one-record case is committed_write's early return.
  FailOneKeyStorage all_fail(mem, "rec/0");
  Status lone;
  EXPECT_EQ(committed_write_group(all_fail, {group.data(), 1}, {&lone, 1},
                                  fast_retry(), rng),
            0u);
  EXPECT_FALSE(lone.ok());
}

// ===========================================================================
// Differential suite: group commit ≡ per-record committed_write, bytes on
// disk, at every queue depth, idle or backlogged.
// ===========================================================================

Records mixed_records() {
  // Sizes cover empty, tiny, exact powers of two, off-by-one, and one
  // record much larger than the rest.
  const std::size_t sizes[] = {0, 1, 7, 256, 300, 4096, 4097, 65536};
  Records records;
  std::uint64_t seed = 100;
  for (const std::size_t n : sizes) {
    records.emplace_back("rec/" + std::to_string(records.size()),
                         pattern_bytes(n, seed++));
  }
  return records;
}

TEST(GroupCommitDifferential, CommittedBytesIdenticalAcrossQueueDepths) {
  const auto records = mixed_records();

  // Reference: the one-record protocol, record by record.
  auto serial_mem = std::make_shared<MemStorage>();
  Xoshiro256 rng = fast_retry().make_rng(1);
  for (const auto& [key, bytes] : records) {
    ASSERT_TRUE(
        committed_write(*serial_mem, key, bytes, fast_retry(), rng).ok());
  }
  const auto reference = dump(*serial_mem);
  ASSERT_EQ(reference.size(), 2 * records.size());  // data + marker each

  for (const std::size_t depth : {1u, 2u, 4u, 8u}) {
    for (const bool backlog : {false, true}) {
      if (backlog && depth < records.size() - 1) continue;
      SCOPED_TRACE("depth=" + std::to_string(depth) +
                   (backlog ? " backlog" : " streamed"));
      auto mem = std::make_shared<MemStorage>();
      auto held = std::make_shared<HoldingStorage>(mem, records[0].first);
      std::vector<Status> results(records.size(),
                                  Status(ErrorCode::kShutdown, "unset"));
      const OnResult on_result = [&results](std::size_t i, const Status& st) {
        results[i] = st;
      };
      {
        AsyncWriter writer(held, committed_options(depth));
        if (backlog) {
          ASSERT_TRUE(submit_backlog(writer, *held, records, on_result));
        } else {
          held->release();
          for (std::size_t i = 0; i < records.size(); ++i) {
            writer.submit(records[i].first, records[i].second, {},
                          [&on_result, i](const Status& st) { on_result(i, st); });
          }
          writer.flush();
        }
      }
      for (const auto& st : results) EXPECT_TRUE(st.ok()) << st.to_string();
      // I4: bit-identical artifacts, marker payloads included.
      EXPECT_EQ(dump(*mem), reference);
    }
  }
}

TEST(GroupCommitDifferential, PlainModeMatchesSerialWrites) {
  const auto records = mixed_records();
  auto serial_mem = std::make_shared<MemStorage>();
  for (const auto& [key, bytes] : records) {
    ASSERT_TRUE(serial_mem->write(key, bytes).ok());
  }

  auto log = std::make_shared<OpLogStorage>(std::make_shared<MemStorage>());
  const auto before = WriterCounters::now();
  {
    AsyncWriter::Options opt;
    opt.max_pending = 3;
    opt.retry = fast_retry();
    opt.committed = false;  // Replicator lane mode: no syncs, no markers
    AsyncWriter writer(log, opt);
    for (const auto& [key, bytes] : records) writer.submit(key, bytes);
    writer.flush();
  }
  EXPECT_EQ(dump(*log), dump(*serial_mem));
  EXPECT_EQ(marker_count(*log), 0u);
  std::vector<std::string> expected;
  for (const auto& [key, bytes] : records) expected.push_back("write " + key);
  EXPECT_EQ(log->ops(), expected);  // in order, no sync
  EXPECT_EQ(WriterCounters::now().since(before).syncs, 0u);
}

TEST(GroupCommitDifferential, CallbacksFireInSubmissionOrderAfterTheMarker) {
  const auto records = make_records(9, 128, 200);
  auto mem = std::make_shared<MemStorage>();
  auto held = std::make_shared<HoldingStorage>(mem, records[0].first);
  std::vector<std::size_t> results, dones;
  {
    AsyncWriter writer(held, committed_options(/*depth=*/8));
    ASSERT_TRUE(writer.submit(
        records[0].first, records[0].second,
        [&] { dones.push_back(0); },
        [&](const Status& st) {
          EXPECT_TRUE(st.ok());
          EXPECT_TRUE(is_committed(*mem, records[0].first));
          results.push_back(0);
        }));
    ASSERT_TRUE(held->wait_until_held());
    for (std::size_t i = 1; i < records.size(); ++i) {
      ASSERT_TRUE(writer.submit(
          records[i].first, records[i].second,
          [&dones, i] { dones.push_back(i); },
          [&, i](const Status& st) {
            EXPECT_TRUE(st.ok());
            // The whole group's markers land before its first callback.
            EXPECT_TRUE(is_committed(*mem, records.back().first));
            results.push_back(i);
          }));
    }
    held->release();
    writer.flush();
  }
  std::vector<std::size_t> in_order(records.size());
  for (std::size_t i = 0; i < in_order.size(); ++i) in_order[i] = i;
  EXPECT_EQ(results, in_order);
  EXPECT_EQ(dones, in_order);
}

// ===========================================================================
// flush() liveness: the writer publishes completion under the waiters'
// mutex.  A bare atomic bump + notify could land between a waiter's
// predicate check and its block, and that flush would then sleep forever.
// Several threads each loop submit → flush on their own 1-deep committed
// writer; a watchdog fails the test, naming the stuck thread, when any
// flush makes no progress for 2 s, then frees it with one more job.
// ===========================================================================

TEST(AsyncWriterFlush, ConcurrentSubmitFlushLoopsNeverLoseAWakeup) {
  constexpr int kThreads = 4;
  constexpr auto kRunFor = std::chrono::seconds(6);
  constexpr auto kStallBound = std::chrono::seconds(2);
  const std::vector<std::byte> payload = pattern_bytes(1, 1);

  std::vector<std::unique_ptr<AsyncWriter>> writers;
  std::vector<std::atomic<std::uint64_t>> flushes(kThreads);
  std::vector<std::atomic<bool>> exited(kThreads);
  std::atomic<bool> stop{false};
  for (int t = 0; t < kThreads; ++t) {
    writers.push_back(std::make_unique<AsyncWriter>(
        std::make_shared<MemStorage>(), committed_options(/*depth=*/1)));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string key = "flusher/" + std::to_string(t);
      while (!stop.load(std::memory_order_relaxed)) {
        writers[t]->submit(key, payload);
        writers[t]->flush();
        flushes[t].fetch_add(1, std::memory_order_relaxed);
      }
      exited[t].store(true);
    });
  }

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  std::vector<std::uint64_t> seen(kThreads, 0);
  std::vector<Clock::time_point> last_progress(kThreads, start);
  while (!stop.load() && Clock::now() - start < kRunFor) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto now = Clock::now();
    for (int t = 0; t < kThreads; ++t) {
      const std::uint64_t n = flushes[t].load(std::memory_order_relaxed);
      if (n != seen[t]) {
        seen[t] = n;
        last_progress[t] = now;
      } else if (now - last_progress[t] >= kStallBound) {
        ADD_FAILURE() << "flush thread " << t << " made no progress for "
                      << std::chrono::duration_cast<std::chrono::seconds>(
                             kStallBound)
                             .count()
                      << " s after " << n << " flushes (writer completed "
                      << writers[t]->completed_jobs() << " jobs, "
                      << writers[t]->pending_jobs() << " pending)";
        stop.store(true);
      }
    }
  }
  stop.store(true);
  // A flush stuck on a lost wakeup is released by the next completion, so
  // kicking each writer with one more job until its thread has seen `stop`
  // lets every thread exit.
  for (int t = 0; t < kThreads; ++t) {
    while (!exited[t].load()) {
      writers[t]->submit("flusher/kick", payload);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  for (auto& thread : threads) thread.join();
  std::uint64_t total = 0;
  for (const auto& n : flushes) total += n.load();
  EXPECT_GT(total, 0u);
}

// ===========================================================================
// Exhaustive crash-point matrix.
//
// A real LowDiff manifest (fulls + differentials) is replayed through a
// committed AsyncWriter onto CrashableStorage under two schedules:
//   * one record at a time (flush after each submit): R groups of one,
//     M = 3R + 1 ops;
//   * a backlog: record 0's data write is held until the other R − 1
//     records are queued, so the groups are {0} and {1..R−1} and
//     M = (3) + (2(R − 1) + 1) + 1 = 2R + 2 + 1.
// A dry run asserts M against its closed form; then *every* boundary
// k ∈ [0, M] is enumerated — crash after exactly k ops — and for each one
// the durable image must satisfy:
//   * committed records form a submission-order prefix of the schedule (I2),
//   * every durable marker covers present, CRC-valid data (I1),
//   * recovery is bit-exact at the prefix's last iteration, or degrades
//     cleanly to "no checkpoint" when no full has committed yet (I3).
// ===========================================================================

enum class Schedule { kOneAtATime, kBacklog };

struct CrashMatrix {
  ModelSpec spec = spec_of(64);
  TopKCompressor comp{0.3};
  /// (key, framed bytes, iteration) in manifest (submission) order.
  struct Record {
    std::string key;
    std::vector<std::byte> bytes;
    std::uint64_t iter = 0;
  };
  std::vector<Record> records;
  std::vector<ModelState> refs;  // refs[t] = training state after step t

  CrashMatrix() {
    // Generate the manifest with the store's per-record path, so the
    // matrix also re-checks group-vs-serial byte identity record by record.
    auto mem = std::make_shared<MemStorage>();
    CheckpointStore store(mem, fast_retry());
    ModelState state(spec);
    state.init_random(33);
    Adam adam;
    Tensor grad(spec.param_count());
    Tensor densed(spec.param_count());
    Xoshiro256 rng(34);
    std::vector<std::pair<std::uint64_t, char>> manifest;
    for (std::uint64_t t = 0; t < 9; ++t) {
      ops::fill_normal(grad.span(), rng, 0.4f);
      const auto payload = comp.compress(grad.cspan(), t);
      comp.decompress(payload, densed.span());
      adam.step(state, densed.cspan());
      if (t == 2 || t == 6) {
        LOWDIFF_ENSURE(store.put_full(t, state).ok(), "put_full failed");
        manifest.emplace_back(t, 'f');
      } else if (t > 2) {
        LOWDIFF_ENSURE(store.put_diff(payload).ok(), "put_diff failed");
        manifest.emplace_back(t, 'd');
      }
      refs.push_back(state.clone());
    }
    for (const auto& [t, kind] : manifest) {
      const std::string key = kind == 'f' ? CheckpointStore::full_key(t)
                                          : CheckpointStore::diff_key(t);
      records.push_back({key, *mem->read(key), t});
    }
    LOWDIFF_ENSURE(records.size() == 7, "manifest: fulls @2,6; diffs @3,4,5,7,8");
  }

  static std::uint64_t expected_ops(Schedule schedule, std::uint64_t R) {
    return schedule == Schedule::kOneAtATime ? 3 * R + 1 : 2 * R + 2 + 1;
  }

  /// Runs the whole schedule (submits → flush → final sync) against a
  /// crash armed after `crash_after` ops; nullopt = dry run, never crash.
  std::shared_ptr<CrashableStorage> run(
      Schedule schedule, std::optional<std::uint64_t> crash_after) const {
    auto crashable =
        std::make_shared<CrashableStorage>(std::make_shared<MemStorage>());
    if (crash_after) crashable->set_crash_after_ops(*crash_after);
    auto held = std::make_shared<HoldingStorage>(crashable, records[0].key);
    {
      AsyncWriter writer(held, committed_options(records.size(), /*attempts=*/2));
      if (schedule == Schedule::kOneAtATime) {
        held->release();
        for (const auto& rec : records) {
          writer.submit(rec.key, rec.bytes);
          writer.flush();
        }
      } else {
        Records pairs;
        for (const auto& rec : records) pairs.emplace_back(rec.key, rec.bytes);
        EXPECT_TRUE(submit_backlog(writer, *held, pairs));
      }
    }
    (void)crashable->sync();  // marker durability — the schedule's final op
    return crashable;
  }

  void check_every_boundary(Schedule schedule) {
    const std::uint64_t M = expected_ops(schedule, records.size());
    const auto dry = run(schedule, std::nullopt);
    ASSERT_FALSE(dry->crashed());
    ASSERT_EQ(dry->applied_ops(), M);

    const auto boundaries = drain(exhaustive_kill_points(M));
    ASSERT_EQ(boundaries.size(), M + 1);

    std::set<std::size_t> prefixes_seen;
    for (const std::uint64_t k : boundaries) {
      SCOPED_TRACE("crash after op " + std::to_string(k) + " of " +
                   std::to_string(M));
      const auto crashed = run(schedule, k);
      EXPECT_TRUE(crashed->crashed());
      const auto snap = crashed->durable_snapshot();

      // I2: committed records are a submission-order prefix.
      std::size_t prefix = 0;
      while (prefix < records.size() &&
             is_committed(*snap, records[prefix].key)) {
        ++prefix;
      }
      for (std::size_t i = prefix; i < records.size(); ++i) {
        EXPECT_FALSE(is_committed(*snap, records[i].key))
            << "marker gap at record " << i << " breaks commit order";
      }
      prefixes_seen.insert(prefix);

      // I1: every durable marker covers present, CRC-valid, byte-identical
      // data — a marker is never observable before its data.
      Xoshiro256 rng = fast_retry().make_rng(2);
      for (std::size_t i = 0; i < prefix; ++i) {
        const auto back =
            committed_read(*snap, records[i].key, fast_retry(), rng);
        ASSERT_TRUE(back.ok()) << records[i].key << ": " << back.status().to_string();
        EXPECT_EQ(*back, records[i].bytes);
      }

      // Recovery: bit-exact at the prefix boundary, or cleanly absent.
      CheckpointStore store(snap, fast_retry());
      if (prefix == 0) {
        EXPECT_FALSE(store.latest_full().has_value());
      } else {
        RecoveryEngine engine(spec, std::make_unique<Adam>(), comp.clone());
        RecoveryReport report;
        const auto recovered = engine.recover_serial(store, &report);
        EXPECT_EQ(report.final_iteration, records[prefix - 1].iter);
        EXPECT_TRUE(recovered.bit_equal(refs[records[prefix - 1].iter]));
        EXPECT_EQ(report.corrupt_diffs_skipped, 0u);
      }
    }

    // Non-vacuity: the matrix must have exercised "nothing durable",
    // intermediate prefixes, and the fully-committed end state.
    EXPECT_TRUE(prefixes_seen.count(0));
    EXPECT_TRUE(prefixes_seen.count(records.size()));
    EXPECT_GE(prefixes_seen.size(), 3u);
  }
};

TEST(GroupCommitCrashMatrix, OneRecordAtATimeRecoversAtEveryBoundary) {
  CrashMatrix matrix;
  matrix.check_every_boundary(Schedule::kOneAtATime);
}

TEST(GroupCommitCrashMatrix, BacklogGroupRecoversAtEveryBoundary) {
  CrashMatrix matrix;
  matrix.check_every_boundary(Schedule::kBacklog);
}

// ===========================================================================
// Fault-injection sweep: torn writes, silent bit flips, and sync timeouts
// on a backlogged writer (groups {0} and {1..5}).  Invariant under test
// everywhere: the commit marker is never observable before (valid,
// durable) data.
// ===========================================================================

TEST(PipelineFaults, TornWritesLeaveDataInvisibleAndUnmarked) {
  FaultSpec faults;
  faults.torn_write_rate = 1.0;
  faults.seed = 77;
  auto mem = std::make_shared<MemStorage>();
  auto torn = std::make_shared<FaultInjectingStorage>(mem, faults);
  const auto records = make_records(6, 512, 300);
  auto held = std::make_shared<HoldingStorage>(torn, records[0].first);
  std::vector<Status> results(records.size());
  {
    AsyncWriter writer(held, committed_options(/*depth=*/8, /*attempts=*/2));
    ASSERT_TRUE(submit_backlog(
        writer, *held, records,
        [&results](std::size_t i, const Status& st) { results[i] = st; }));
    EXPECT_EQ(writer.failed_jobs(), records.size());
  }
  for (const auto& st : results) EXPECT_FALSE(st.ok());

  // Torn prefixes landed on the device, but I3 held: not one marker was
  // even *attempted*, so every record reads back as absent, never as torn.
  EXPECT_GE(torn->fault_stats().torn_writes, 6u);
  EXPECT_TRUE(mem->exists("rec/0"));
  EXPECT_EQ(marker_count(*mem), 0u);
  Xoshiro256 rng = fast_retry().make_rng(3);
  for (const auto& [key, bytes] : records) {
    EXPECT_EQ(committed_read(*mem, key, fast_retry(), rng).status().code(),
              ErrorCode::kNotFound);
  }
}

TEST(PipelineFaults, SilentBitFlipsAreDetectedAtReadNeverServed) {
  FaultSpec faults;
  faults.bit_flip_rate = 1.0;  // every write lands with one bit corrupted
  faults.seed = 78;
  auto mem = std::make_shared<MemStorage>();
  auto flipping = std::make_shared<FaultInjectingStorage>(mem, faults);
  const auto records = make_records(6, 512, 400);
  auto held = std::make_shared<HoldingStorage>(flipping, records[0].first);
  {
    AsyncWriter writer(held, committed_options(/*depth=*/8, /*attempts=*/2));
    ASSERT_TRUE(submit_backlog(writer, *held, records));
    // The writes "succeeded" — the corruption is silent.
    EXPECT_EQ(writer.failed_jobs(), 0u);
  }
  ASSERT_GT(flipping->fault_stats().bit_flips, 0u);

  // Every committed read must detect the damage via the marker CRC chain;
  // under no circumstances are corrupt bytes served as the original.
  Xoshiro256 rng = fast_retry().make_rng(4);
  for (const auto& [key, original] : records) {
    const auto back = committed_read(*mem, key, fast_retry(), rng);
    ASSERT_FALSE(back.ok()) << key << " served corrupt data";
    EXPECT_EQ(back.status().code(), ErrorCode::kCorrupted);
  }
}

TEST(PipelineFaults, SyncTimeoutMidWindowFailsTheGroupBeforeAnyMarker) {
  // Modeled device whose fsync takes 20 ms against a 4 ms sync deadline:
  // both group syncs time out.  Data writes are unaffected.
  auto mem = std::make_shared<MemStorage>();
  LinkSpec link;
  link.bytes_per_sec = 1e12;
  link.sync_latency_sec = 0.02;
  auto throttled = std::make_shared<ThrottledStorage>(
      mem, link, /*time_scale=*/1.0, "pipeline_timeout_test");
  DeadlineSpec deadline;
  deadline.sync_deadline_sec = 0.004;
  auto deadlined = std::make_shared<DeadlineStorage>(throttled, deadline);
  const auto records = make_records(6, 256, 500);
  auto held = std::make_shared<HoldingStorage>(deadlined, records[0].first);
  std::vector<Status> results(records.size());
  {
    // Timeouts are retryable, but a group sync is never retried.
    AsyncWriter writer(held, committed_options(/*depth=*/8, /*attempts=*/1));
    ASSERT_TRUE(submit_backlog(
        writer, *held, records,
        [&results](std::size_t i, const Status& st) { results[i] = st; }));
  }
  for (const auto& st : results) EXPECT_EQ(st.code(), ErrorCode::kTimeout);
  EXPECT_EQ(deadlined->timeouts(), 2u);  // one per group

  // Durability unknown ⇒ whole group unmarked: data objects exist, yet not
  // one commit marker is observable.
  for (const auto& [key, bytes] : records) EXPECT_TRUE(mem->exists(key));
  EXPECT_EQ(marker_count(*mem), 0u);
}

// ===========================================================================
// All six strategies: each store equals a reference that commits the same
// data objects record by record with committed_write.  A slow sync lets the
// queued strategies (LowDiff, LowDiff+) build backlogs, so their writers
// group-commit.
// ===========================================================================

/// Records every data write (markers excluded) in arrival order.
class DataWriteRecorder final : public ForwardingStorage {
 public:
  using ForwardingStorage::ForwardingStorage;
  Status write(const std::string& key, std::span<const std::byte> bytes) override {
    if (!is_commit_marker(key)) {
      std::lock_guard lock(mutex_);
      writes_.emplace_back(key, std::vector<std::byte>(bytes.begin(), bytes.end()));
    }
    return inner_->write(key, bytes);
  }

  /// The image committed_write would leave for the same data, one by one.
  std::map<std::string, std::vector<std::byte>> per_record_reference() const {
    std::lock_guard lock(mutex_);
    MemStorage reference;
    Xoshiro256 rng = fast_retry().make_rng(5);
    for (const auto& [key, bytes] : writes_) {
      LOWDIFF_ENSURE(committed_write(reference, key, bytes, fast_retry(), rng).ok(),
                     "reference write failed");
    }
    return dump(reference);
  }

 private:
  mutable std::mutex mutex_;
  Records writes_;
};

std::shared_ptr<DataWriteRecorder> slow_sync_store() {
  LinkSpec link;
  link.bytes_per_sec = 1e12;
  link.sync_latency_sec = 1e-3;
  return std::make_shared<DataWriteRecorder>(std::make_shared<ThrottledStorage>(
      std::make_shared<MemStorage>(), link, /*time_scale=*/1.0, "group_commit_test"));
}

struct StrategyHarness {
  explicit StrategyHarness(std::size_t n = 200, std::uint64_t seed = 5)
      : spec(spec_of(n)), state(spec), grad(n), dense(n), rng(seed) {
    state.init_random(seed);
  }

  void step(std::uint64_t iter, CheckpointStrategy& strategy,
            const Compressor& comp) {
    ops::fill_normal(grad.span(), rng, 0.4f);
    auto payload = std::make_shared<const CompressedGrad>(
        comp.compress(grad.cspan(), iter));
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

TEST(GroupCommitClients, AllSixStrategiesMatchPerRecordCommittedWrite) {
  const TopKCompressor comp(0.1);
  // Each case runs one strategy and returns the recorders of every backend
  // it committed to.
  using Case = std::pair<const char*,
                         std::function<std::vector<std::shared_ptr<DataWriteRecorder>>()>>;
  const std::vector<Case> cases{
      {"torch.save",
       [&] {
         auto backend = slow_sync_store();
         TorchSaveStrategy strategy(
             std::make_shared<CheckpointStore>(backend, fast_retry()), 3);
         StrategyHarness h;
         for (std::uint64_t t = 0; t < 10; ++t) h.step(t, strategy, comp);
         strategy.flush();
         return std::vector{backend};
       }},
      {"CheckFreq",
       [&] {
         auto backend = slow_sync_store();
         CheckFreqStrategy strategy(
             std::make_shared<CheckpointStore>(backend, fast_retry()), 3);
         StrategyHarness h;
         for (std::uint64_t t = 0; t < 10; ++t) h.step(t, strategy, comp);
         strategy.flush();
         return std::vector{backend};
       }},
      {"Gemini",
       [&] {
         auto tier = slow_sync_store();
         auto backend = slow_sync_store();
         GeminiStrategy strategy(
             tier, std::make_shared<CheckpointStore>(backend, fast_retry()),
             /*interval=*/1, /*persist_interval=*/4);
         StrategyHarness h;
         for (std::uint64_t t = 0; t < 10; ++t) h.step(t, strategy, comp);
         strategy.flush();
         return std::vector{tier, backend};
       }},
      {"NaiveDC",
       [&] {
         auto backend = slow_sync_store();
         NaiveDcStrategy strategy(
             std::make_shared<CheckpointStore>(backend, fast_retry()),
             std::make_unique<TopKCompressor>(1.0), /*diff_interval=*/1,
             /*full_interval=*/6);
         StrategyHarness h;
         for (std::uint64_t t = 0; t < 10; ++t) h.step(t, strategy, comp);
         strategy.flush();
         return std::vector{backend};
       }},
      {"LowDiff",
       [&] {
         auto backend = slow_sync_store();
         LowDiffStrategy::Options opt;
         opt.batch_size = 1;
         opt.full_interval = 5;
         LowDiffStrategy strategy(
             std::make_shared<CheckpointStore>(backend, fast_retry()), opt);
         StrategyHarness h;
         for (std::uint64_t t = 0; t < 12; ++t) h.step(t, strategy, comp);
         strategy.flush();
         return std::vector{backend};
       }},
      {"LowDiff+",
       [&] {
         auto backend = slow_sync_store();
         const auto spec = spec_of(100);
         ModelState train_state(spec);
         train_state.init_random(2);
         LowDiffPlusStrategy::Options opt;
         opt.persist_interval = 1;
         LowDiffPlusStrategy strategy(
             std::make_shared<CheckpointStore>(backend, fast_retry()),
             train_state, std::make_unique<Adam>(), opt);
         Adam adam;
         DenseCompressor dense;
         Tensor grad(spec.param_count());
         Xoshiro256 rng(6);
         for (std::uint64_t t = 0; t < 8; ++t) {
           ops::fill_normal(grad.span(), rng, 0.2f);
           adam.step(train_state, grad.cspan());
           strategy.after_step(t, train_state,
                               std::make_shared<const CompressedGrad>(
                                   dense.compress(grad.cspan(), t)));
         }
         strategy.flush();
         return std::vector{backend};
       }},
  };

  for (const auto& [name, run] : cases) {
    SCOPED_TRACE(name);
    for (const auto& backend : run()) {
      const auto image = dump(*backend);
      EXPECT_GT(marker_count_of(image), 0u);
      EXPECT_EQ(image, backend->per_record_reference());
    }
  }
}

}  // namespace
}  // namespace lowdiff
