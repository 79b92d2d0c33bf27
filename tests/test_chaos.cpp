/// \file test_chaos.cpp
/// Self-healing replication runtime (DESIGN.md §9): breaker state machines
/// and failure classification, deadline-to-timeout conversion, the
/// short-circuit proof (retry counter flat while a breaker is open),
/// breaker-aware read routing, best-effort writes under quorum and the
/// refusal when no target is admitted, budgeted online quorum repair, the
/// M/G/∞ repair-overlap model, and the randomized chaos campaign's
/// bit-exact-recovery acceptance bar.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/rng.h"
#include "compress/topk.h"
#include "core/checkpoint_store.h"
#include "obs/metrics.h"
#include "optim/adam.h"
#include "sim/cluster.h"
#include "sim/failure.h"
#include "support/chaos.h"
#include "support/kill_points.h"
#include "storage/atomic_commit.h"
#include "storage/deadline.h"
#include "storage/fault_injection.h"
#include "storage/mem_storage.h"
#include "tier/health.h"
#include "tier/placement.h"
#include "tier/repair.h"
#include "tier/replicator.h"
#include "tier/topology.h"

namespace lowdiff {
namespace {

using tier::ChaosOptions;
using tier::ChaosRunner;
using tier::FailureClass;
using tier::HealthOptions;
using tier::PlacementPolicy;
using tier::QuorumRepairEngine;
using tier::Replicator;
using tier::TargetHealth;
using tier::TierHealthMonitor;
using tier::TierTopology;

sim::ClusterSpec cluster_of(std::size_t servers) {
  sim::ClusterSpec cluster;
  cluster.num_gpus = servers * cluster.gpus_per_server;
  return cluster;
}

std::shared_ptr<TierTopology> topo_of(std::size_t servers) {
  tier::TierSimOptions opts;
  opts.time_scale = 1e-7;
  return TierTopology::for_cluster(cluster_of(servers), opts);
}

std::vector<std::byte> payload_of(std::size_t n, std::uint8_t fill = 0x5a) {
  return std::vector<std::byte>(n, std::byte{fill});
}

std::uint64_t counter(const std::string& name) {
  return obs::Registry::global().counter(name).value();
}

double gauge(const std::string& name) {
  return obs::Registry::global().gauge(name).value();
}

/// Fast retries so fault-window tests don't sleep out real backoff.
RetryPolicy quick_retry() {
  RetryPolicy p;
  p.max_attempts = 3;
  p.base_delay_sec = 1e-5;
  p.max_delay_sec = 1e-4;
  return p;
}

/// Health monitor on a hand-stepped clock; `now` may be advanced from the
/// test thread while writer threads read it, hence the atomic.
struct SteppedClock {
  std::shared_ptr<std::atomic<double>> now =
      std::make_shared<std::atomic<double>>(0.0);
  std::function<double()> fn() const {
    auto p = now;
    return [p] { return p->load(std::memory_order_relaxed); };
  }
  void advance(double sec) {
    now->store(now->load(std::memory_order_relaxed) + sec,
               std::memory_order_relaxed);
  }
};

// --- breaker state machine ---------------------------------------------------

TEST(Health, BreakerLifecycleWalksAllFourStates) {
  SteppedClock clock;
  HealthOptions h;
  h.clock = clock.fn();
  TierHealthMonitor mon(h);

  EXPECT_EQ(mon.state("t"), TargetHealth::kHealthy);
  EXPECT_TRUE(mon.admit("t"));
  EXPECT_TRUE(mon.readable("t"));

  mon.record_failure("t", ErrorCode::kTransient);
  EXPECT_EQ(mon.state("t"), TargetHealth::kHealthy);  // below suspect_after
  mon.record_failure("t", ErrorCode::kTransient);
  EXPECT_EQ(mon.state("t"), TargetHealth::kSuspect);
  EXPECT_TRUE(mon.admit("t"));  // suspect still admitted

  mon.record_failure("t", ErrorCode::kTimeout);
  mon.record_failure("t", ErrorCode::kTimeout);
  EXPECT_EQ(mon.state("t"), TargetHealth::kOpen);

  // Open + cooldown not elapsed: short-circuit, not readable.
  const auto sc0 = mon.short_circuits();
  EXPECT_FALSE(mon.admit("t"));
  EXPECT_FALSE(mon.readable("t"));
  EXPECT_EQ(mon.short_circuits(), sc0 + 1);
  EXPECT_EQ(mon.state("t"), TargetHealth::kOpen);

  // Cooldown elapses: the next admit is the half-open probe.
  clock.advance(h.open_cooldown_sec + 0.01);
  EXPECT_TRUE(mon.readable("t"));
  const auto probes0 = mon.probes();
  EXPECT_TRUE(mon.admit("t"));
  EXPECT_EQ(mon.probes(), probes0 + 1);
  EXPECT_EQ(mon.state("t"), TargetHealth::kHalfOpen);

  mon.record_success("t");
  EXPECT_EQ(mon.state("t"), TargetHealth::kHalfOpen);
  mon.record_success("t");  // close_after = 2
  EXPECT_EQ(mon.state("t"), TargetHealth::kHealthy);
}

TEST(Health, HardFailuresWeighDoubleAndFailedProbeReopens) {
  SteppedClock clock;
  HealthOptions h;
  h.clock = clock.fn();
  TierHealthMonitor mon(h);

  // hard weight 2: two declared-dead responses trip the breaker.
  mon.record_failure("a", ErrorCode::kUnavailable);
  EXPECT_EQ(mon.state("a"), TargetHealth::kSuspect);
  mon.record_failure("a", ErrorCode::kCorrupted);
  EXPECT_EQ(mon.state("a"), TargetHealth::kOpen);

  const auto in_open = mon.targets_in(TargetHealth::kOpen);
  EXPECT_NE(std::find(in_open.begin(), in_open.end(), "a"), in_open.end());

  // Probe fails: straight back to Open, cooldown restarted.
  clock.advance(h.open_cooldown_sec + 0.01);
  EXPECT_TRUE(mon.admit("a"));
  EXPECT_EQ(mon.state("a"), TargetHealth::kHalfOpen);
  mon.record_failure("a", ErrorCode::kTransient);
  EXPECT_EQ(mon.state("a"), TargetHealth::kOpen);
  EXPECT_FALSE(mon.admit("a"));

  // Operator override after replacing the hardware.
  mon.reset("a");
  EXPECT_EQ(mon.state("a"), TargetHealth::kHealthy);
  EXPECT_TRUE(mon.admit("a"));
}

TEST(Health, ClassificationAndRetryability) {
  EXPECT_EQ(tier::classify_failure(ErrorCode::kTimeout), FailureClass::kTimeout);
  EXPECT_EQ(tier::classify_failure(ErrorCode::kTransient),
            FailureClass::kTransient);
  EXPECT_EQ(tier::classify_failure(ErrorCode::kUnavailable), FailureClass::kHard);
  EXPECT_EQ(tier::classify_failure(ErrorCode::kCorrupted), FailureClass::kHard);
  EXPECT_EQ(tier::classify_failure(ErrorCode::kExhausted), FailureClass::kHard);

  // A timeout's outcome is ambiguous — retrying is safe under the commit
  // protocol.  A short-circuit must NOT be retried: that flatness while a
  // breaker is open is the whole point of tripping it.
  EXPECT_TRUE(Status(ErrorCode::kTimeout, "t").retryable());
  EXPECT_FALSE(Status(ErrorCode::kCircuitOpen, "t").retryable());
}

// --- deadline detector -------------------------------------------------------

TEST(Deadline, SlowOpsConvertToTimeoutAndAreCounted) {
  auto mem = std::make_shared<MemStorage>();
  FaultSpec slow;
  slow.latency_spike_rate = 1.0;
  slow.latency_spike_sec = 5e-3;
  auto sick = std::make_shared<FaultInjectingStorage>(mem, slow);

  DeadlineSpec spec;
  spec.write_deadline_sec = 1e-3;
  spec.read_deadline_sec = 1e-3;
  DeadlineStorage dl(sick, spec);

  const auto bytes = payload_of(64);
  const Status st = dl.write("k", bytes);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kTimeout);
  EXPECT_EQ(dl.timeouts(), 1u);
  // Ambiguous outcome: the bytes actually landed (the inner op finished,
  // just late) — exactly the torn semantics the commit protocol absorbs.
  EXPECT_TRUE(mem->exists("k"));

  const auto rd = dl.read("k");
  EXPECT_FALSE(rd.ok());
  EXPECT_EQ(rd.status().code(), ErrorCode::kTimeout);
  EXPECT_EQ(dl.timeouts(), 2u);

  // Disabled classes pass straight through.
  DeadlineStorage loose(sick, DeadlineSpec{});
  EXPECT_TRUE(loose.write("k2", bytes).ok());
  EXPECT_TRUE(loose.read("k2").ok());
  EXPECT_EQ(loose.timeouts(), 0u);
}

// --- retry jitter determinism (satellite: seeded RNG injection) --------------

TEST(Retry, JitterStreamsAreSeedDeterministic) {
  RetryPolicy p;
  p.seed = 42;
  auto a = p.make_rng(0);
  auto b = p.make_rng(0);
  auto c = p.make_rng(1);

  bool stream_diverged = false;
  for (int i = 0; i < 8; ++i) {
    const double da = p.delay_sec(i, a);
    const double db = p.delay_sec(i, b);
    const double dc = p.delay_sec(i, c);
    EXPECT_DOUBLE_EQ(da, db);  // same seed + stream => same schedule
    if (da != dc) stream_diverged = true;
    EXPECT_GE(da, 0.0);
    EXPECT_LE(da, p.max_delay_sec * (1.0 + p.jitter));
  }
  EXPECT_TRUE(stream_diverged);  // streams are decorrelated

  RetryPolicy q = p;
  q.seed = 43;
  auto d = q.make_rng(0);
  auto e = p.make_rng(0);
  bool seed_diverged = false;
  for (int i = 0; i < 8; ++i) {
    if (q.delay_sec(i, d) != p.delay_sec(i, e)) seed_diverged = true;
  }
  EXPECT_TRUE(seed_diverged);
}

// --- the short-circuit proof -------------------------------------------------

TEST(Breaker, OpenLaneShortCircuitsWritesWithFlatRetriesThenProbesClosed) {
  set_log_level(LogLevel::kOff);  // the flap window logs every failed job
  auto topo = topo_of(3);
  SteppedClock clock;
  HealthOptions h;
  h.open_cooldown_sec = 0.5;  // only the stepped clock can elapse it
  h.clock = clock.fn();
  auto health = std::make_shared<TierHealthMonitor>(h);

  tier::ReplicatorOptions opts;
  opts.origin_server = 0;
  opts.health = health;
  opts.replica_retry = quick_retry();
  auto rep = std::make_shared<Replicator>(
      topo, PlacementPolicy::parse("2@local,peer"), opts);

  // Flap the secondary lane: every device write fails with kTransient.
  tier::TierTarget* sick = topo->find("mem.s1");
  ASSERT_NE(sick, nullptr);
  ASSERT_NE(sick->faults, nullptr);
  FaultSpec flap;
  flap.write_error_rate = 1.0;
  sick->faults->set_spec(flap);

  const auto bytes = payload_of(256);
  int writes = 0;
  while (health->state("mem.s1") != TargetHealth::kOpen && writes < 64) {
    ASSERT_TRUE(rep->write("rec/" + std::to_string(writes), bytes).ok());
    rep->flush();
    ++writes;
  }
  ASSERT_EQ(health->state("mem.s1"), TargetHealth::kOpen);

  // While the breaker is open: the retry counter stays FLAT and the device
  // sees zero further attempts — writes to the open target are provably
  // short-circuited, not retried against.
  const auto retries_at_open = rep->writer_retries();
  const auto device_attempts = sick->faults->fault_stats().write_errors;
  EXPECT_GT(retries_at_open, 0u);  // the counter was alive before the trip
  EXPECT_GT(device_attempts, 0u);

  for (int j = 0; j < 8; ++j) {
    // Still succeeds: placement degrades to the healthy lane (best-effort
    // under quorum), and the key is tracked as durability-lagging.
    ASSERT_TRUE(rep->write("post/" + std::to_string(j), bytes).ok());
  }
  rep->flush();
  EXPECT_EQ(rep->writer_retries(), retries_at_open);
  EXPECT_EQ(sick->faults->fault_stats().write_errors, device_attempts);
  EXPECT_EQ(health->state("mem.s1"), TargetHealth::kOpen);
  EXPECT_FALSE(rep->lagging_keys().empty());
  EXPECT_GT(gauge("tier.replication.durability_lag_records"), 0.0);

  // Heal the device, elapse the cooldown: probe traffic re-closes the
  // breaker and the lane rejoins placement.
  sick->faults->set_spec(FaultSpec{});
  clock.advance(h.open_cooldown_sec + 0.01);
  const auto probes0 = health->probes();
  for (int j = 0; j < 4; ++j) {
    ASSERT_TRUE(rep->write("heal/" + std::to_string(j), bytes).ok());
    rep->flush();
  }
  EXPECT_EQ(health->state("mem.s1"), TargetHealth::kHealthy);
  EXPECT_GT(health->probes(), probes0);
  EXPECT_GT(sick->faults->fault_stats().write_errors, 0u);  // stats intact
  EXPECT_TRUE(sick->backend->exists("heal/3"));              // traffic landed
  set_log_level(LogLevel::kWarn);
}

// --- breaker-aware read routing (satellite) ----------------------------------

TEST(Breaker, ReadSkipsOpenLaneWithoutConsumingCrcFallback) {
  auto topo = topo_of(2);
  HealthOptions h;
  h.open_cooldown_sec = 1e9;  // stays open for the whole test
  auto health = std::make_shared<TierHealthMonitor>(h);

  tier::ReplicatorOptions opts;
  opts.origin_server = 0;
  opts.health = health;
  auto rep = std::make_shared<Replicator>(
      topo, PlacementPolicy::parse("2@local,peer"), opts);

  const auto bytes = payload_of(512, 0x33);
  RetryPolicy policy = quick_retry();
  auto rng = policy.make_rng();
  ASSERT_TRUE(committed_write(*rep, "full/000001", bytes, policy, rng).ok());
  ASSERT_TRUE(rep->sync().ok());
  ASSERT_TRUE(rep->durable("full/000001"));

  // Healthy cluster: the origin SSD (3.2 GB/s) is the bandwidth-preferred
  // source.  Trip its breaker: the read must fall to the next-ranked
  // healthy tier without touching the open lane — and without consuming
  // the CRC-fallback budget (no corrupt counts anywhere).
  health->record_failure("ssd.s0", ErrorCode::kUnavailable);
  health->record_failure("ssd.s0", ErrorCode::kUnavailable);
  ASSERT_EQ(health->state("ssd.s0"), TargetHealth::kOpen);

  const auto ssd_reads = counter("tier.ssd.s0.reads_total");
  const auto mem_reads = counter("tier.mem.s1.reads_total");
  const auto ssd_corrupt = counter("tier.ssd.s0.read_corrupt_total");
  const auto mem_corrupt = counter("tier.mem.s1.read_corrupt_total");

  const auto got = rep->read("full/000001");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(std::equal(got->begin(), got->end(), bytes.begin(), bytes.end()));

  EXPECT_EQ(counter("tier.ssd.s0.reads_total"), ssd_reads);  // never touched
  EXPECT_GT(counter("tier.mem.s1.reads_total"), mem_reads);
  EXPECT_EQ(counter("tier.ssd.s0.read_corrupt_total"), ssd_corrupt);
  EXPECT_EQ(counter("tier.mem.s1.read_corrupt_total"), mem_corrupt);

  const auto totals = rep->read_totals();
  EXPECT_EQ(totals.count("ssd.s0"), 0u);  // open lane absent from totals
}

// --- quorum degradation ------------------------------------------------------

TEST(Degrade, EveryDomainDownRefusesWithoutTouchingAnyTier) {
  auto topo = topo_of(2);
  tier::ReplicatorOptions opts;
  opts.origin_server = 0;
  auto rep = std::make_shared<Replicator>(
      topo, PlacementPolicy::parse("2@local,peer"), opts);

  // No admitted target at all: best effort has nowhere to write.
  topo->fail_domain(0);
  topo->fail_domain(1);
  const auto records0 = counter("tier.replication.records_total");
  const Status st = rep->write("full/000007", payload_of(128));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(counter("tier.replication.records_total"), records0);
  rep->flush();
  for (std::size_t i = 0; i < topo->size(); ++i) {
    EXPECT_FALSE(topo->target(i).base->exists("full/000007"))
        << topo->target(i).name;
  }
  EXPECT_TRUE(rep->lagging_keys().empty());
}

TEST(Degrade, BestEffortLagsThenRepairRestoresQuorum) {
  auto topo = topo_of(2);
  auto health = std::make_shared<TierHealthMonitor>();
  tier::ReplicatorOptions opts;
  opts.origin_server = 0;
  opts.health = health;
  auto rep = std::make_shared<Replicator>(
      topo, PlacementPolicy::parse("2@local,peer"), opts);

  topo->fail_domain(1);
  const auto best0 = counter("tier.replication.best_effort_total");
  RetryPolicy policy = quick_retry();
  auto rng = policy.make_rng();
  ASSERT_TRUE(committed_write(*rep, "full/000003", payload_of(256), policy, rng)
                  .ok());
  EXPECT_GT(counter("tier.replication.best_effort_total"), best0);
  EXPECT_FALSE(rep->durable("full/000003"));  // one committed copy only
  const auto lagging = rep->lagging_keys();
  ASSERT_EQ(lagging.size(), 1u);
  EXPECT_EQ(lagging[0], "full/000003");
  EXPECT_GT(gauge("tier.replication.durability_lag_records"), 0.0);

  // Domain returns; one repair pass re-earns the quorum and clears the lag.
  topo->restore_domain(1);
  QuorumRepairEngine repair(topo, *rep);
  const auto pass = repair.run_once();
  EXPECT_GE(pass.repaired, 1u);
  EXPECT_EQ(pass.remaining, 0u);
  EXPECT_TRUE(rep->durable("full/000003"));
  EXPECT_TRUE(rep->lagging_keys().empty());
  EXPECT_EQ(gauge("tier.replication.durability_lag_records"), 0.0);
}

// --- budgeted quorum repair --------------------------------------------------

TEST(Repair, BudgetedPassesMakeMonotoneProgressAfterDomainLoss) {
  const std::size_t kRecords = 6;
  auto topo = topo_of(3);
  auto health = std::make_shared<TierHealthMonitor>();
  tier::ReplicatorOptions opts;
  opts.origin_server = 0;
  opts.health = health;
  auto rep = std::make_shared<Replicator>(
      topo, PlacementPolicy::parse("2@local,peer"), opts);

  // Commit kRecords full checkpoints (~1 KiB of data each).
  ModelSpec spec;
  spec.name = "repair";
  spec.layers = {{"w", {256}}};
  CheckpointStore store(rep, quick_retry());
  ModelState state(spec);
  for (std::size_t i = 0; i < kRecords; ++i) {
    state.init_random(100 + i);
    ASSERT_TRUE(store.put_full(i, state).ok());
  }
  ASSERT_TRUE(rep->sync().ok());
  for (std::size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(rep->durable(CheckpointStore::full_key(i)));
  }

  // Lose the peer-memory domain: every record drops to one committed copy.
  topo->fail_domain(1);

  QuorumRepairEngine::Options ropts;
  ropts.budget_bytes_per_pass = 2ull << 10;  // ~1–2 records per pass
  QuorumRepairEngine repair(topo, *rep, ropts);

  const auto repaired0 = counter("repair.records_repaired_total");
  const auto first = repair.run_once();
  EXPECT_EQ(first.under_replicated, kRecords);
  EXPECT_TRUE(first.budget_exhausted);  // the tiny budget bit
  EXPECT_GE(first.repaired, 1u);        // but progress was made
  EXPECT_GT(first.remaining, 0u);
  EXPECT_EQ(first.unrepairable, 0u);

  EXPECT_TRUE(repair.repair_until_quorum(/*max_passes=*/20));
  EXPECT_EQ(counter("repair.records_repaired_total") - repaired0, kRecords);
  EXPECT_EQ(gauge("repair.under_replicated"), 0.0);

  // Quorum is re-earned on distinct live domains (the dead one stays dead).
  for (std::size_t i = 0; i < kRecords; ++i) {
    const auto key = CheckpointStore::full_key(i);
    ASSERT_TRUE(rep->durable(key)) << key;
    std::set<std::size_t> domains;
    for (std::size_t t = 0; t < topo->size(); ++t) {
      auto& target = topo->target(t);
      if (!topo->alive(target)) continue;
      if (target.backend->exists(commit_marker_key(key))) {
        domains.insert(target.failure_domain);
      }
    }
    EXPECT_GE(domains.size(), 2u) << key;
  }
}

TEST(Repair, OrphanedDataIsNotRepairWork) {
  auto topo = topo_of(2);
  auto rep = std::make_shared<Replicator>(
      topo, PlacementPolicy::parse("2@local,peer"), tier::ReplicatorOptions{});

  // A torn write's leftover: data landed, no marker anywhere.  Under the
  // commit protocol this record does not exist; repair must not report it
  // as under-replicated (that would pin `remaining` above zero forever).
  ASSERT_TRUE(rep->write("full/000099", payload_of(64)).ok());
  rep->flush();

  QuorumRepairEngine repair(topo, *rep);
  const auto pass = repair.run_once();
  EXPECT_GE(pass.scanned, 1u);
  EXPECT_GE(pass.orphaned, 1u);
  EXPECT_EQ(pass.under_replicated, 0u);
  EXPECT_EQ(pass.unrepairable, 0u);
  EXPECT_EQ(pass.remaining, 0u);
  EXPECT_TRUE(repair.repair_until_quorum(1));
}

// --- M/G/∞ repair-overlap model ----------------------------------------------

TEST(RepairModel, OverlapAndOccupancyMatchClosedForms) {
  sim::RepairModel m(/*mtbf_sec=*/3600.0, /*mean_repair_sec=*/120.0);
  EXPECT_NEAR(m.overlap_probability(), 1.0 - std::exp(-120.0 / 3600.0), 1e-12);
  EXPECT_NEAR(m.expected_unrepaired(16), 16.0 * 120.0 / 3600.0, 1e-12);

  // Degenerate repair-in-zero-time: nothing ever overlaps.
  sim::RepairModel instant(3600.0, 0.0);
  EXPECT_DOUBLE_EQ(instant.overlap_probability(), 0.0);
  EXPECT_DOUBLE_EQ(instant.concurrent_loss_probability(64, 1), 0.0);
}

TEST(RepairModel, QuorumLossIsMonotoneInReplicationAndRepairSpeed) {
  sim::RepairModel m(3600.0, 120.0);
  // More simultaneous losses required => less likely.
  EXPECT_GT(m.concurrent_loss_probability(16, 1),
            m.concurrent_loss_probability(16, 2));
  EXPECT_GT(m.concurrent_loss_probability(16, 2),
            m.concurrent_loss_probability(16, 3));
  // k replicas / quorum q dies when k - q + 1 overlap.
  EXPECT_DOUBLE_EQ(m.quorum_loss_probability(16, 3, 2),
                   m.concurrent_loss_probability(16, 2));
  // Faster repair strictly helps.
  sim::RepairModel fast(3600.0, 30.0);
  EXPECT_LT(fast.quorum_loss_probability(16, 3, 2),
            m.quorum_loss_probability(16, 3, 2));

  // Samples are positive and seed-deterministic.
  Xoshiro256 r1(7), r2(7);
  for (int i = 0; i < 16; ++i) {
    const double s = m.sample_repair_sec(r1);
    EXPECT_GT(s, 0.0);
    EXPECT_DOUBLE_EQ(s, m.sample_repair_sec(r2));
  }
}

// --- the chaos campaign ------------------------------------------------------

TEST(ChaosCampaign, TwentySeedsRecoverBitExactWithQuorumRestored) {
  set_log_level(LogLevel::kOff);  // fault windows log every expected error
  ChaosRunner runner;
  std::size_t total_kills = 0;
  std::size_t total_sickenings = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    // Identity in a normal run; a decorrelated universe under the sweep.
    const auto r = runner.run(test_support::sweep_seed(seed));
    total_kills += r.kills;
    total_sickenings += r.sickenings;
    EXPECT_TRUE(r.recovered) << "seed " << seed;
    EXPECT_TRUE(r.bit_exact) << "seed " << seed << " recovered iteration "
                             << r.recovered_iteration;
    EXPECT_TRUE(r.quorum_restored)
        << "seed " << seed << " needed more than "
        << runner.options().repair_passes_per_event << " budgeted passes";
    EXPECT_EQ(r.under_replicated_final, 0u) << "seed " << seed;
  }
  // The campaign must actually have put the runtime under fire.
  EXPECT_GE(total_kills, 3u);
  EXPECT_GE(total_sickenings, 3u);
  set_log_level(LogLevel::kWarn);
}

TEST(ChaosCampaign, ScheduleIsAPureFunctionOfTheSeed) {
  set_log_level(LogLevel::kOff);
  ChaosRunner runner;
  const auto a = runner.run(7);
  const auto b = runner.run(7);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
    EXPECT_EQ(a.events[i].iteration, b.events[i].iteration) << i;
    EXPECT_EQ(a.events[i].server, b.events[i].server) << i;
    EXPECT_EQ(a.events[i].target, b.events[i].target) << i;
  }
  EXPECT_EQ(a.kills, b.kills);
  EXPECT_EQ(a.sickenings, b.sickenings);
  EXPECT_TRUE(a.bit_exact);
  EXPECT_TRUE(b.bit_exact);
  set_log_level(LogLevel::kWarn);
}

}  // namespace
}  // namespace lowdiff
