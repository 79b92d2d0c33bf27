/// \file test_tier.cpp
/// Tiered placement & replication (DESIGN.md §5): placement grammar and
/// round-robin planning, quorum durability through the Replicator, the
/// failure-domain acceptance scenarios (k=2 survives any single server
/// loss bit-exactly; the paper's 1@local baseline loses the origin's
/// chain), bandwidth-optimal source selection and CRC cross-tier
/// fallback.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "compress/topk.h"
#include "core/checkpoint_store.h"
#include "core/recovery.h"
#include "obs/metrics.h"
#include "optim/adam.h"
#include "sim/cluster.h"
#include "sim/failure.h"
#include "storage/atomic_commit.h"
#include "tensor/ops.h"
#include "tier/placement.h"
#include "tier/replicator.h"
#include "tier/tier_recovery.h"
#include "tier/topology.h"

namespace lowdiff {
namespace {

using tier::PlacementPolicy;
using tier::Replicator;
using tier::TierAwareRecoveryEngine;
using tier::TierTopology;

sim::ClusterSpec cluster_of(std::size_t servers) {
  sim::ClusterSpec cluster;
  cluster.num_gpus = servers * cluster.gpus_per_server;
  return cluster;
}

/// Paper-testbed topology with throttling compressed to negligible wall
/// time — link *accounting* still runs, tests just don't sleep for it.
std::shared_ptr<TierTopology> topo_of(std::size_t servers) {
  tier::TierSimOptions opts;
  opts.time_scale = 1e-7;
  return TierTopology::for_cluster(cluster_of(servers), opts);
}

std::shared_ptr<Replicator> replicator_of(std::shared_ptr<TierTopology> topo,
                                          const std::string& policy,
                                          std::size_t origin = 0) {
  tier::ReplicatorOptions opts;
  opts.origin_server = origin;
  return std::make_shared<Replicator>(std::move(topo),
                                      PlacementPolicy::parse(policy), opts);
}

ModelSpec spec_of(std::size_t n) {
  ModelSpec spec;
  spec.name = "flat";
  spec.layers = {{"w", {n}}};
  return spec;
}

/// Same gradient-reuse loop as test_recovery.cpp: each synchronized
/// compressed gradient steps the optimizer and lands in the store as a
/// differential.  Returns the final training state.
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

std::uint64_t counter(const std::string& name) {
  return obs::Registry::global().counter(name).value();
}

// --- placement grammar -------------------------------------------------------

TEST(Placement, ParseRoundTripsAndResolvesQuorum) {
  const auto p = PlacementPolicy::parse("2@local,peer");
  EXPECT_EQ(p.replicas(), 2u);
  ASSERT_EQ(p.spec().preference.size(), 2u);
  EXPECT_EQ(p.spec().preference[0], tier::TierKind::kLocalSsd);
  EXPECT_EQ(p.spec().preference[1], tier::TierKind::kPeerMemory);
  EXPECT_EQ(p.quorum(), 2u);  // majority of 2
  EXPECT_EQ(p.to_string(), "2@local,peer");

  const auto q = PlacementPolicy::parse("3@local,peer,remote/q2");
  EXPECT_EQ(q.replicas(), 3u);
  EXPECT_EQ(q.quorum(), 2u);  // pinned
  EXPECT_EQ(q.to_string(), "3@local,peer,remote/q2");

  EXPECT_EQ(PlacementPolicy::parse("3@local").quorum(), 2u);  // majority of 3
  EXPECT_EQ(PlacementPolicy::parse("1@local").quorum(), 1u);
}

TEST(Placement, ParseRejectsMalformedPolicies) {
  EXPECT_THROW(PlacementPolicy::parse("local"), Error);        // no k@
  EXPECT_THROW(PlacementPolicy::parse("0@local"), Error);      // k == 0
  EXPECT_THROW(PlacementPolicy::parse("2@"), Error);           // empty tier
  EXPECT_THROW(PlacementPolicy::parse("2@disk"), Error);       // unknown tier
  EXPECT_THROW(PlacementPolicy::parse("2@local/q0"), Error);   // quorum == 0
  EXPECT_THROW(PlacementPolicy::parse("2@local/q3"), Error);   // quorum > k
}

TEST(Placement, PlanRoundRobinsAcrossListedTierKinds) {
  auto topo = topo_of(4);

  // One replica per listed kind per round: origin SSD *plus* a peer's RAM.
  auto mixed = PlacementPolicy::parse("2@local,peer").plan(*topo, 0);
  ASSERT_EQ(mixed.targets.size(), 2u);
  EXPECT_EQ(mixed.targets[0]->name, "ssd.s0");
  EXPECT_EQ(mixed.targets[1]->name, "mem.s1");  // peer ring starts at origin+1
  EXPECT_FALSE(mixed.degraded);

  // A single listed kind spreads over distinct servers of that kind.
  auto local = PlacementPolicy::parse("2@local").plan(*topo, 2);
  ASSERT_EQ(local.targets.size(), 2u);
  EXPECT_EQ(local.targets[0]->name, "ssd.s2");  // origin's own SSD first
  EXPECT_EQ(local.targets[1]->name, "ssd.s3");  // then ring order

  auto three = PlacementPolicy::parse("3@local,peer,remote").plan(*topo, 1);
  ASSERT_EQ(three.targets.size(), 3u);
  EXPECT_EQ(three.targets[0]->name, "ssd.s1");
  EXPECT_EQ(three.targets[1]->name, "mem.s2");
  EXPECT_EQ(three.targets[2]->name, "remote");

  // k beyond the listed kinds wraps for more of the same mix, still in
  // distinct failure domains.
  auto wrapped = PlacementPolicy::parse("4@local,peer").plan(*topo, 0);
  ASSERT_EQ(wrapped.targets.size(), 4u);
  EXPECT_EQ(wrapped.targets[0]->name, "ssd.s0");
  EXPECT_EQ(wrapped.targets[1]->name, "mem.s1");
  EXPECT_EQ(wrapped.targets[2]->name, "ssd.s2");  // domain 1 already used
  EXPECT_EQ(wrapped.targets[3]->name, "mem.s3");
}

TEST(Placement, PlanSkipsDeadDomainsAndReportsDegraded) {
  auto topo = topo_of(2);
  topo->fail_domain(1);

  // The surviving server can still take the primary; the peer replica has
  // nowhere distinct to go.
  auto plan = PlacementPolicy::parse("2@local,peer").plan(*topo, 0);
  ASSERT_EQ(plan.targets.size(), 1u);
  EXPECT_EQ(plan.targets[0]->name, "ssd.s0");
  EXPECT_TRUE(plan.degraded);

  topo->restore_domain(1);
  EXPECT_FALSE(PlacementPolicy::parse("2@local,peer").plan(*topo, 0).degraded);
}

// --- replication & durability ------------------------------------------------

TEST(Replication, SyncReachesFullReplicaCountAndQuorum) {
  auto topo = topo_of(4);
  auto replicas = replicator_of(topo, "2@local,peer");
  CheckpointStore store(replicas);

  ModelState state(spec_of(128));
  state.init_random(3);
  store.put_full(0, state);
  ASSERT_TRUE(replicas->sync().ok());

  const std::string key = "full/000000000000";
  EXPECT_EQ(replicas->committed_replicas(key), 2u);
  EXPECT_TRUE(replicas->durable(key));
  EXPECT_EQ(replicas->failed_replica_writes(), 0u);

  // Both the origin SSD and the peer's RAM hold the complete record
  // (data + commit marker) — each tier is a self-contained manifest.
  for (const char* name : {"ssd.s0", "mem.s1"}) {
    auto* target = topo->find(name);
    ASSERT_NE(target, nullptr) << name;
    EXPECT_TRUE(target->backend->exists(key)) << name;
    EXPECT_TRUE(target->backend->exists("commit/" + key)) << name;
  }
}

TEST(Replication, ListIsUnionOfSurvivingTiers) {
  auto topo = topo_of(2);
  auto replicas = replicator_of(topo, "1@local");
  ASSERT_TRUE(replicas->write("full/000000000000",
                              std::vector<std::byte>(16, std::byte{1}))
                  .ok());
  ASSERT_TRUE(replicas->sync().ok());

  auto keys = replicas->list();
  EXPECT_NE(std::find(keys.begin(), keys.end(), "full/000000000000"),
            keys.end());

  topo->fail_domain(0);
  EXPECT_TRUE(replicas->list().empty());  // only tier holding it is down
  EXPECT_FALSE(replicas->exists("full/000000000000"));
}

// --- acceptance (a): k=2 across servers survives any single server loss -----

TEST(TierRecovery, TwoReplicasSurviveAnySingleServerKillBitExactly) {
  const auto spec = spec_of(300);
  const auto cluster = cluster_of(4);
  for (std::size_t victim = 0; victim < cluster.servers(); ++victim) {
    auto topo = topo_of(4);
    auto replicas = replicator_of(topo, "2@local,peer");
    CheckpointStore store(replicas);
    Adam adam;
    TopKCompressor comp(0.1);
    const auto trained =
        train_with_reuse(store, spec, adam, comp, /*full_at=*/4, /*iters=*/24,
                         /*seed=*/victim + 5);
    ASSERT_TRUE(replicas->sync().ok());

    TierAwareRecoveryEngine engine(spec, adam.clone(), comp.clone());
    RecoveryReport report;
    const auto recovered = engine.recover_after_failures(replicas, {victim},
                                                         &report);
    EXPECT_TRUE(trained.bit_equal(recovered)) << "victim server " << victim;
    EXPECT_EQ(report.final_iteration, 23u) << "victim server " << victim;
    EXPECT_EQ(report.corrupt_diffs_skipped, 0u);
  }
}

// --- acceptance (b): the paper's 1@local baseline loses the origin's chain --

TEST(TierRecovery, LocalOnlyPlacementLosesOriginServersChain) {
  const auto spec = spec_of(200);
  auto topo = topo_of(4);
  auto replicas = replicator_of(topo, "1@local", /*origin=*/0);
  CheckpointStore store(replicas);
  Adam adam;
  TopKCompressor comp(0.1);
  const auto trained =
      train_with_reuse(store, spec, adam, comp, /*full_at=*/2, /*iters=*/20, 9);
  ASSERT_TRUE(replicas->sync().ok());

  TierAwareRecoveryEngine engine(spec, adam.clone(), comp.clone());

  // Control: losing a *different* server leaves the origin SSD intact.
  {
    RecoveryReport report;
    const auto recovered = engine.recover_after_failures(replicas, {1}, &report);
    EXPECT_TRUE(trained.bit_equal(recovered));
    topo->restore_domain(1);
  }

  // Losing the origin server takes the only replica of every record with
  // it — exactly the single-point-of-loss the tier subsystem closes.
  EXPECT_THROW(engine.recover_after_failures(replicas, {0}), Error);
}

// --- acceptance (c): reads come from the bandwidth-optimal surviving tier ---

TEST(TierRecovery, ReadsPreferFastestSurvivingTier) {
  const auto spec = spec_of(256);
  auto topo = topo_of(4);
  auto replicas = replicator_of(topo, "3@local,peer,remote");
  CheckpointStore store(replicas);
  Adam adam;
  TopKCompressor comp(0.1);
  const auto trained =
      train_with_reuse(store, spec, adam, comp, /*full_at=*/3, /*iters=*/18, 13);
  ASSERT_TRUE(replicas->sync().ok());

  TierAwareRecoveryEngine engine(spec, adam.clone(), comp.clone());

  // Healthy cluster: the origin SSD (3.2 GB/s read) outranks peer RAM and
  // the remote store (25 Gbps fabric each), so it serves everything.
  const auto ssd_before = counter("tier.ssd.s0.reads_total");
  const auto mem_before = counter("tier.mem.s1.reads_total");
  const auto remote_before = counter("tier.remote.reads_total");
  RecoveryReport healthy;
  const auto recovered = engine.recover(replicas, &healthy);
  EXPECT_TRUE(trained.bit_equal(recovered));
  EXPECT_GT(counter("tier.ssd.s0.reads_total"), ssd_before);
  EXPECT_EQ(counter("tier.mem.s1.reads_total"), mem_before);
  EXPECT_EQ(counter("tier.remote.reads_total"), remote_before);
  ASSERT_TRUE(healthy.read_sources.count("ssd.s0"));
  EXPECT_EQ(healthy.read_sources.count("remote"), 0u);

  // The per-source breakdown accounts for every byte the recovery read.
  std::uint64_t source_bytes = 0;
  for (const auto& [name, totals] : healthy.read_sources) {
    source_bytes += totals.bytes;
  }
  EXPECT_EQ(source_bytes, healthy.bytes_read);
  EXPECT_GT(healthy.bytes_read, 0u);

  // Kill the origin: the next-fastest surviving replica serves instead and
  // the result is still bit-exact.
  const auto ssd_mid = counter("tier.ssd.s0.reads_total");
  RecoveryReport failed;
  const auto after = engine.recover_after_failures(replicas, {0}, &failed);
  EXPECT_TRUE(trained.bit_equal(after));
  EXPECT_EQ(counter("tier.ssd.s0.reads_total"), ssd_mid);
  EXPECT_EQ(failed.read_sources.count("ssd.s0"), 0u);
  std::uint64_t surviving_bytes = 0;
  for (const auto& [name, totals] : failed.read_sources) {
    EXPECT_NE(name, "ssd.s0");
    surviving_bytes += totals.bytes;
  }
  EXPECT_EQ(surviving_bytes, failed.bytes_read);
}

// --- CRC cross-tier fallback -------------------------------------------------

TEST(TierRecovery, CorruptReplicaFallsBackAcrossTiersBitExactly) {
  const auto spec = spec_of(220);
  auto topo = topo_of(2);
  auto replicas = replicator_of(topo, "2@local,remote");
  CheckpointStore store(replicas);
  Adam adam;
  TopKCompressor comp(0.1);
  const auto trained =
      train_with_reuse(store, spec, adam, comp, /*full_at=*/2, /*iters=*/16, 17);
  ASSERT_TRUE(replicas->sync().ok());

  // Flip a byte of every data object on the fast tier, underneath the
  // fault injector (the scenario hook `base` exists for exactly this).
  auto* ssd = topo->find("ssd.s0");
  ASSERT_NE(ssd, nullptr);
  std::size_t corrupted = 0;
  for (const auto& key : ssd->base->list()) {
    if (key.rfind("commit/", 0) == 0) continue;
    auto data = ssd->base->read(key);
    ASSERT_TRUE(data.ok());
    auto bytes = std::move(data).value();
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= std::byte{0x40};
    ASSERT_TRUE(ssd->base->write(key, bytes).ok());
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);

  const auto corrupt_before = counter("tier.ssd.s0.read_corrupt_total");
  TierAwareRecoveryEngine engine(spec, adam.clone(), comp.clone());
  RecoveryReport report;
  const auto recovered = engine.recover(replicas, &report);

  // Every record fell through to the remote replica: bit-exact, nothing
  // truncated, and the skips are visible in the tier metrics.
  EXPECT_TRUE(trained.bit_equal(recovered));
  EXPECT_EQ(report.corrupt_diffs_skipped, 0u);
  EXPECT_EQ(report.final_iteration, 15u);
  EXPECT_GE(counter("tier.ssd.s0.read_corrupt_total") - corrupt_before,
            corrupted);
  ASSERT_TRUE(report.read_sources.count("remote"));
  EXPECT_GT(report.read_sources.at("remote").reads, 0u);
}

TEST(TierRecovery, CorruptMarkersFallBackAcrossTiersBitExactly) {
  // The marker is the one record no marker vouches for: its own frame CRC
  // must reject a bit flip, or the Replicator would serve the flipped
  // marker from the fast tier and every record would read as corrupt.
  const auto spec = spec_of(220);
  auto topo = topo_of(2);
  auto replicas = replicator_of(topo, "2@local,remote");
  CheckpointStore store(replicas);
  Adam adam;
  TopKCompressor comp(0.1);
  const auto trained =
      train_with_reuse(store, spec, adam, comp, /*full_at=*/2, /*iters=*/16, 17);
  ASSERT_TRUE(replicas->sync().ok());

  // Flip one byte of the data CRC recorded in every marker on the fast tier.
  auto* ssd = topo->find("ssd.s0");
  ASSERT_NE(ssd, nullptr);
  std::size_t corrupted = 0;
  for (const auto& key : ssd->base->list()) {
    if (!is_commit_marker(key)) continue;
    auto marker = ssd->base->read(key);
    ASSERT_TRUE(marker.ok());
    auto bytes = std::move(marker).value();
    ASSERT_FALSE(bytes.empty());
    bytes.back() ^= std::byte{0x01};
    ASSERT_TRUE(ssd->base->write(key, bytes).ok());
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);

  const auto corrupt_before = counter("tier.ssd.s0.read_corrupt_total");
  TierAwareRecoveryEngine engine(spec, adam.clone(), comp.clone());
  RecoveryReport report;
  const auto recovered = engine.recover(replicas, &report);

  EXPECT_TRUE(trained.bit_equal(recovered));
  EXPECT_EQ(report.corrupt_diffs_skipped, 0u);
  EXPECT_EQ(report.corrupt_fulls_skipped, 0u);
  EXPECT_EQ(report.final_iteration, 15u);
  EXPECT_GE(counter("tier.ssd.s0.read_corrupt_total") - corrupt_before,
            corrupted);
  ASSERT_TRUE(report.read_sources.count("remote"));
  EXPECT_GT(report.read_sources.at("remote").reads, 0u);
}

// --- failure sampling (sim/failure.h) ---------------------------------------

TEST(FailureSampling, ServerLossesAreDistinctBoundedAndDeterministic) {
  const auto a = sim::sample_server_losses(8, 3, 42);
  const auto b = sim::sample_server_losses(8, 3, 42);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(std::adjacent_find(a.begin(), a.end()), a.end());
  for (const auto s : a) EXPECT_LT(s, 8u);

  // Different seeds decorrelate; killing every server is the full set.
  EXPECT_NE(sim::sample_server_losses(8, 3, 43),
            sim::sample_server_losses(8, 3, 44));
  const auto all = sim::sample_server_losses(4, 4, 7);
  EXPECT_EQ(all, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_THROW(sim::sample_server_losses(2, 3, 1), Error);
}

}  // namespace
}  // namespace lowdiff
