#pragma once

/// \file replicator.h
/// k-way placement-driven replication behind the StorageBackend interface.
///
/// Every write is routed by a PlacementPolicy to an ordered set of tier
/// targets: the primary is written synchronously, the remaining replicas
/// are shipped asynchronously on a per-tier AsyncWriter (FIFO per tier, so
/// the CheckpointStore commit protocol's data-before-marker order is
/// preserved within every tier — each tier carries its own complete commit
/// manifest).  A record is *durable* once its commit marker exists on at
/// least `quorum` tiers; committed_replicas()/durable() report that state
/// and sync() is the full barrier (drain replica writers + sync tiers).
///
/// Reads are placement-aware: candidates are the surviving tiers holding
/// the key, tried in descending read-bandwidth order; a replica that fails
/// matches_marker() against its own tier's marker (the commit protocol's
/// shared check, atomic_commit.h), or whose marker fails to parse, is
/// skipped (counted in `tier.<name>.read_corrupt_total`) and the
/// next-fastest tier serves instead, so a single corrupt replica never
/// truncates recovery while a healthy copy exists.  Requests against a failed domain fail with
/// kUnavailable even when raced by in-flight replica jobs.
///
/// Because Replicator *is* a StorageBackend, the whole existing stack —
/// CheckpointStore manifests, strategies, AsyncWriter, RecoveryEngine —
/// routes through placement unchanged.
///
/// Every lane op runs under Options::deadline (DeadlineStorage; disabled by
/// default).  With a TierHealthMonitor attached (Options::health), ops
/// against an Open lane short-circuit with non-retryable kCircuitOpen
/// before touching the device, and sick lanes are excluded from placement
/// and read candidacy.  A write that cannot reach quorum goes to the
/// targets that are admitted, and its key joins the lag set until repair
/// restores the quorum; a write with no admitted target is refused with
/// kUnavailable.  See DESIGN.md §9.

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/retry.h"
#include "storage/async_writer.h"
#include "storage/backend.h"
#include "storage/deadline.h"
#include "tier/health.h"
#include "tier/placement.h"
#include "tier/topology.h"

namespace lowdiff::tier {

/// Per-tier read accounting (RecoveryReport::read_sources feeds from this).
struct SourceTotals {
  std::uint64_t reads = 0;
  std::uint64_t bytes = 0;
  double seconds = 0.0;  ///< modeled read time: bytes / tier read bandwidth
  std::uint64_t corrupt = 0;
};

/// Namespace-scope (not nested) so it can default-construct as a `= {}`
/// default argument inside the class body.
struct ReplicatorOptions {
  std::size_t origin_server = 0;  ///< placement origin (this rank's server)
  /// Retry schedule for async replica jobs.  Its seed (RetryPolicy::make_rng)
  /// and the lane index fully determine every jitter draw, so replicated
  /// runs are reproducible under `ctest -j`.
  RetryPolicy replica_retry;
  /// Per-op deadlines applied to every lane (0 = disabled).  Timeouts are
  /// surfaced as kTimeout and classified as soft failures by `health`.
  DeadlineSpec deadline;
  /// Shared breaker state.  Null (default) disables health gating entirely
  /// — the pre-§9 behavior.
  std::shared_ptr<TierHealthMonitor> health;
};

class Replicator final : public StorageBackend {
 public:
  using Options = ReplicatorOptions;

  Replicator(std::shared_ptr<TierTopology> topology, PlacementPolicy policy,
             Options options = {});
  ~Replicator() override;

  // --- StorageBackend ------------------------------------------------------
  Status write(const std::string& key, std::span<const std::byte> bytes) override;
  Result<std::vector<std::byte>> read(const std::string& key) const override;
  bool exists(const std::string& key) const override;
  void remove(const std::string& key) override;
  std::vector<std::string> list() const override;
  StorageStats stats() const override;
  /// Full durability barrier: drains every replica writer, then syncs every
  /// surviving tier.
  Status sync() override;

  // --- replication introspection -------------------------------------------
  /// Surviving tiers holding a commit marker for `key`.
  std::size_t committed_replicas(const std::string& key) const;
  /// True once the placement quorum has committed.
  bool durable(const std::string& key) const;
  /// Drains pending async replica writes (sync() minus the tier syncs).
  void flush();

  std::map<std::string, SourceTotals> read_totals() const;

  const PlacementPolicy& policy() const { return policy_; }
  TierTopology& topology() { return *topology_; }
  const Options& options() const { return options_; }
  /// Replica jobs that failed even after the writer's retries.
  std::uint64_t failed_replica_writes() const;
  /// Total retry attempts across every lane's writer.  The chaos tests
  /// assert this stays *flat* while a breaker is open — the short-circuit
  /// proof (an open lane's jobs fail with non-retryable kCircuitOpen on
  /// the first attempt).
  std::uint64_t writer_retries() const;

  // --- degraded-durability accounting --------------------------------------
  /// Data keys written without a reachable quorum, not yet repaired.
  std::vector<std::string> lagging_keys() const;
  /// Drops one key from the lag set (the repair engine calls this after
  /// restoring its quorum).
  void clear_lag(const std::string& key);
  /// Re-checks durable() for every lagging key and drops the ones that
  /// caught up (async replicas may have landed since the write).
  void refresh_lag();

  const std::shared_ptr<TierHealthMonitor>& health() const {
    return options_.health;
  }

 private:
  struct Lane;  // one tier target: its monitored backend stack + writer

  Lane& lane_of(const TierTarget& target) const;
  /// Alive, breaker-readable lanes, fastest read bandwidth first.
  std::vector<Lane*> read_candidates() const;
  bool lane_admitted(const TierTarget& target) const;
  void note_lag(const std::string& key);
  void set_lag_gauge_locked();

  std::shared_ptr<TierTopology> topology_;
  PlacementPolicy policy_;
  Options options_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  mutable std::mutex totals_mutex_;
  mutable std::map<std::string, SourceTotals> totals_;
  mutable StorageStats stats_;
  mutable std::mutex stats_mutex_;

  mutable std::mutex lag_mutex_;
  std::set<std::string> lag_keys_;
  obs::Gauge& lag_gauge_;
};

}  // namespace lowdiff::tier
