#pragma once

/// \file topology.h
/// Checkpoint placement tiers and the failure-domain map over a simulated
/// cluster.
///
/// LowDiff as published persists every record to the writing server's local
/// SSD (§6.1), so losing one server loses that server's shard of the
/// checkpoint chain — the paper's recovery story silently assumes the
/// failed node's storage survives.  This module describes *where else* a
/// record can live: each TierTarget is one storage location (another
/// server's RAM reached over the fabric, a server's local SSD, or a shared
/// remote store), carries the failure domain it dies with (the server
/// index; the shared store is its own domain), and the read bandwidth the
/// recovery source-selection model uses.
///
/// Every target's backend is the canonical ThrottledStorage over
/// FaultInjectingStorage over MemStorage stack (storage/stacking.h), so
/// tier traffic pays the same link costs and survives the same fault
/// classes as the single-backend paths.

#include <cstddef>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "sim/cluster.h"
#include "storage/stacking.h"

namespace lowdiff::tier {

enum class TierKind : std::uint8_t {
  kPeerMemory,    ///< another server's RAM, reached over the fabric
  kLocalSsd,      ///< a server's NVMe SSD
  kRemoteShared,  ///< shared remote store (own failure domain)
};

inline const char* to_string(TierKind kind) {
  switch (kind) {
    case TierKind::kPeerMemory: return "peer";
    case TierKind::kLocalSsd: return "local";
    case TierKind::kRemoteShared: return "remote";
  }
  return "unknown";
}

/// One placement location.  `failure_domain` is the server whose loss
/// takes this target down (kSharedDomain for the remote store);
/// `volatile_storage` marks contents that vanish with the domain (RAM)
/// as opposed to merely becoming unreachable (a dead server's SSD).
struct TierTarget {
  std::string name;  ///< metrics label: `tier.<name>.*`
  TierKind kind = TierKind::kLocalSsd;
  std::size_t failure_domain = 0;
  std::shared_ptr<StorageBackend> backend;
  /// Undecorated root object store — scenario hooks (wipe on server loss,
  /// byte-level corruption in tests).  Never read/written on normal paths.
  std::shared_ptr<MemStorage> base;
  /// Fault-injection layer of the stack — the chaos switchboard flips a
  /// live target sick (flap/slow) via set_spec without rebuilding.  Null
  /// for hand-built targets with undecorated backends.
  std::shared_ptr<FaultInjectingStorage> faults;
  double read_bytes_per_sec = 1.0 * kGB;
  bool volatile_storage = false;
};

/// Knobs for for_cluster()-built topologies, which always build every
/// server's local-SSD and peer-memory tiers.  (Namespace-scope rather than
/// nested so it can serve as a `= {}` default argument inside TierTopology —
/// a nested class's default member initializers are only parsed once the
/// enclosing class is complete.)
struct TierSimOptions {
  double time_scale = 1.0;  ///< shared wall-clock scale for all throttles
  FaultSpec faults;         ///< applied per tier (seed decorrelated)
  bool remote_shared = true;  ///< also build the shared remote store
};

/// The set of tier targets plus which failure domains are currently down.
/// fail_domain()/restore_domain() are the server-loss switchboard the
/// failure scenarios (sim/failure.h) drive; Replicator consults alive()
/// on every read/write.
class TierTopology {
 public:
  static constexpr std::size_t kSharedDomain =
      std::numeric_limits<std::size_t>::max();

  using SimOptions = TierSimOptions;

  /// Builds the paper-testbed topology from a ClusterSpec: per server one
  /// local-SSD tier (`ssd.s<i>`, write link = cluster.storage, read
  /// bandwidth = cluster.storage_read_bytes_per_sec) and one peer-memory
  /// tier (`mem.s<i>`, both directions over cluster.network), plus one
  /// shared remote store (`remote`, links::remote_storage()).
  static std::shared_ptr<TierTopology> for_cluster(const sim::ClusterSpec& cluster,
                                                   const SimOptions& opts = {});

  void add(TierTarget target);

  std::size_t size() const { return targets_.size(); }
  TierTarget& target(std::size_t i) { return targets_[i]; }
  const TierTarget& target(std::size_t i) const { return targets_[i]; }
  TierTarget* find(const std::string& name);
  const TierTarget* find(const std::string& name) const;

  /// Marks a failure domain down.  Volatile targets in the domain lose
  /// their contents immediately (RAM does not survive a server loss);
  /// non-volatile targets keep their bytes but stop serving until
  /// restore_domain() (a replaced machine's SSD is unreachable, not
  /// erased).
  void fail_domain(std::size_t domain);
  void restore_domain(std::size_t domain);
  bool domain_failed(std::size_t domain) const;

  bool alive(const TierTarget& target) const {
    return !domain_failed(target.failure_domain);
  }

 private:
  std::vector<TierTarget> targets_;
  mutable std::mutex mutex_;
  std::set<std::size_t> failed_domains_;
};

}  // namespace lowdiff::tier
