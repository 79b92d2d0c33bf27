#pragma once

/// \file repair.h
/// QuorumRepairEngine: online re-replication of under-replicated records —
/// the *healing* half of the self-healing runtime (DESIGN.md §9.2).
///
/// After a domain loss or a breaker trip, records that were durable at
/// quorum may suddenly hold fewer committed replicas than the placement
/// policy demands; a best-effort write under degradation starts out that
/// way.  The repair engine scans the surviving tiers for such records and
/// copies them — data, sync, marker, the commit order, so a record never
/// has fewer committed replicas mid-repair than before — to alternate
/// targets chosen with the same rules placement uses (policy tier-kind
/// preference, distinct failure domains, breaker-admitted only).
///
/// Repair traffic competes with checkpoint traffic for the same links, so
/// each pass runs under a byte budget: when the budget is exhausted the
/// pass stops and reports budget_exhausted; the next pass resumes where
/// the scan order left off (keys are scanned in lexical order, so progress
/// is monotone as records get repaired).  A record whose every surviving
/// copy fails CRC validation is counted unrepairable and left for
/// recovery-time truncation.
///
/// run_once() is one budgeted pass, on the caller's thread, whenever the
/// caller decides (the chaos harness runs passes around each domain loss).
/// repair_until_quorum() loops passes until nothing is under-replicated
/// (the chaos harness's "quorum restored within a budgeted window"
/// assertion counts these passes).

#include <cstdint>
#include <memory>

#include "tier/replicator.h"

namespace lowdiff::tier {

/// Namespace-scope (not nested) so it can default-construct as a `= {}`
/// default argument inside the class body (same constraint as
/// TierSimOptions/ReplicatorOptions).
struct QuorumRepairOptions {
  /// Max data+marker bytes copied per pass.  The first copy of a pass is
  /// always allowed (a budget smaller than one record must still make
  /// progress).
  std::uint64_t budget_bytes_per_pass = 8ull << 20;
};

class QuorumRepairEngine {
 public:
  using Options = QuorumRepairOptions;

  /// The replicator supplies placement policy, health monitor, lag set and
  /// flush; the engine reads/writes tier backends directly (its traffic
  /// pays the same modeled link costs as checkpoint I/O).
  QuorumRepairEngine(std::shared_ptr<TierTopology> topology,
                     Replicator& replicator, Options options = {});

  struct Pass {
    std::size_t scanned = 0;            ///< data records examined
    /// Data objects with no surviving committed copy anywhere: torn-write
    /// leftovers (never committed, invisible) or records whose every
    /// committed copy is in a dead domain (nothing to copy from).  Skipped
    /// — not repair work, not `remaining`.
    std::size_t orphaned = 0;
    std::size_t under_replicated = 0;   ///< found below quorum this pass
    std::size_t repaired = 0;           ///< records brought back to quorum
    std::size_t copies = 0;             ///< replica copies created
    std::uint64_t bytes = 0;            ///< data+marker bytes shipped
    bool budget_exhausted = false;      ///< pass stopped on the byte budget
    std::size_t unrepairable = 0;       ///< no valid source or destination
    std::size_t remaining = 0;          ///< still below quorum after pass
  };

  /// One budgeted sweep.  Thread-safe against concurrent checkpoint
  /// traffic (everything goes through the backends' own locking).
  Pass run_once();

  /// Runs passes until no record is under-replicated or `max_passes` is
  /// spent.  Returns true when quorum is fully restored.
  bool repair_until_quorum(std::size_t max_passes);

  const Options& options() const { return options_; }

 private:
  std::shared_ptr<TierTopology> topology_;
  Replicator& replicator_;
  Options options_;
};

}  // namespace lowdiff::tier
