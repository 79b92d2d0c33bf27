#include "tier/repair.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/atomic_commit.h"

namespace lowdiff::tier {

namespace {

struct RepairObs {
  obs::Counter& passes_total;
  obs::Counter& records_repaired_total;
  obs::Counter& copies_total;
  obs::Counter& bytes_total;
  obs::Counter& budget_exhausted_total;
  obs::Counter& unrepairable_total;
  obs::Gauge& under_replicated;

  static RepairObs resolve() {
    auto& reg = obs::Registry::global();
    return RepairObs{reg.counter("repair.passes_total"),
                     reg.counter("repair.records_repaired_total"),
                     reg.counter("repair.copies_total"),
                     reg.counter("repair.bytes_total"),
                     reg.counter("repair.budget_exhausted_total"),
                     reg.counter("repair.unrepairable_total"),
                     reg.gauge("repair.under_replicated")};
  }
};

}  // namespace

QuorumRepairEngine::QuorumRepairEngine(std::shared_ptr<TierTopology> topology,
                                       Replicator& replicator, Options options)
    : topology_(std::move(topology)),
      replicator_(replicator),
      options_(options) {
  LOWDIFF_ENSURE(topology_ != nullptr, "null topology");
  LOWDIFF_ENSURE(options_.budget_bytes_per_pass > 0,
                 "repair budget must be positive");
}

QuorumRepairEngine::Pass QuorumRepairEngine::run_once() {
  LOWDIFF_TRACE_SPAN("tier.repair", "tier");
  static thread_local RepairObs robs = RepairObs::resolve();
  robs.passes_total.add();
  Pass pass;

  // Queued replica jobs may already carry the missing copies — let them
  // land before judging anything under-replicated.
  replicator_.flush();

  const PlacementPolicy& policy = replicator_.policy();
  const std::size_t quorum = policy.quorum();
  const auto health = replicator_.health();
  auto admitted = [&](const TierTarget& t) {
    return health == nullptr || health->readable(t.name);
  };

  // Destination preference: policy tier-kind order, then ring distance
  // from the replicator's origin within a kind — the same shape plan()
  // produces, so repaired records land where a fresh write would have.
  std::size_t ring = 0;
  for (std::size_t i = 0; i < topology_->size(); ++i) {
    const std::size_t d = topology_->target(i).failure_domain;
    if (d != TierTopology::kSharedDomain) ring = std::max(ring, d + 1);
  }
  if (ring == 0) ring = 1;
  const std::size_t origin = replicator_.options().origin_server;
  auto ring_distance = [&](const TierTarget& t) {
    if (t.failure_domain == TierTopology::kSharedDomain) return ring;
    return (t.failure_domain + ring - (origin % ring)) % ring;
  };
  std::vector<TierTarget*> ordered;
  for (TierKind kind : policy.spec().preference) {
    std::vector<TierTarget*> of_kind;
    for (std::size_t i = 0; i < topology_->size(); ++i) {
      if (topology_->target(i).kind == kind) {
        of_kind.push_back(&topology_->target(i));
      }
    }
    std::stable_sort(of_kind.begin(), of_kind.end(),
                     [&](const TierTarget* a, const TierTarget* b) {
                       return ring_distance(*a) < ring_distance(*b);
                     });
    ordered.insert(ordered.end(), of_kind.begin(), of_kind.end());
  }

  // Lexical scan order + monotone repair = the budget-exhausted cursor
  // effectively resumes next pass without explicit state.
  std::set<std::string> keys;
  for (std::size_t i = 0; i < topology_->size(); ++i) {
    auto& t = topology_->target(i);
    if (!topology_->alive(t)) continue;
    for (auto& key : t.backend->list()) {
      if (!is_commit_marker(key)) keys.insert(std::move(key));
    }
  }

  for (const std::string& key : keys) {
    ++pass.scanned;
    const std::string marker_key = commit_marker_key(key);

    std::vector<TierTarget*> holders;
    std::set<std::size_t> domains;
    for (std::size_t i = 0; i < topology_->size(); ++i) {
      auto& t = topology_->target(i);
      if (!topology_->alive(t)) continue;
      if (!t.backend->exists(marker_key)) continue;
      holders.push_back(&t);
      domains.insert(t.failure_domain);
    }
    if (holders.size() >= quorum) {
      replicator_.clear_lag(key);
      continue;
    }
    if (holders.empty()) {
      // No surviving committed copy at all.  Either the record was never
      // committed (a torn write's orphaned data object — invisible under
      // the commit protocol, nothing to restore) or every committed copy
      // sits in a currently-dead domain (nothing to copy *from*; the bytes
      // come back with restore_domain()).  Neither is repair work.
      ++pass.orphaned;
      continue;
    }
    ++pass.under_replicated;
    if (pass.budget_exhausted) {
      ++pass.remaining;  // still counted; repaired next pass
      continue;
    }

    // Source: a surviving, breaker-readable holder whose data validates
    // against its own marker — repair must never propagate a corrupt copy.
    std::vector<std::byte> data;
    std::vector<std::byte> marker_bytes;
    bool have_source = false;
    for (TierTarget* t : holders) {
      if (!admitted(*t)) continue;
      auto m = t->backend->read(marker_key);
      if (!m.ok()) continue;
      auto record = parse_commit_marker(*m);
      if (!record.ok()) continue;
      auto d = t->backend->read(key);
      if (!d.ok() || !matches_marker(*d, *record)) {
        continue;
      }
      data = std::move(*d);
      marker_bytes = std::move(*m);
      have_source = true;
      break;
    }
    if (!have_source) {
      ++pass.unrepairable;
      ++pass.remaining;
      robs.unrepairable_total.add();
      continue;
    }

    std::size_t need = quorum - holders.size();
    const std::uint64_t cost = data.size() + marker_bytes.size();
    for (TierTarget* t : ordered) {
      if (need == 0) break;
      if (!topology_->alive(*t) || !admitted(*t)) continue;
      if (t->backend->exists(marker_key)) continue;
      if (policy.spec().distinct_domains && domains.contains(t->failure_domain)) {
        continue;
      }
      if (pass.bytes > 0 && pass.bytes + cost > options_.budget_bytes_per_pass) {
        pass.budget_exhausted = true;
        robs.budget_exhausted_total.add();
        break;
      }
      // Commit order on the destination: data, barrier, marker — the copy
      // is invisible until whole.  A failed step just tries the next
      // candidate; the health monitor hears about it either way.
      auto fail = [&](const Status& st) {
        if (health != nullptr) health->record_failure(t->name, st.code());
        LOWDIFF_LOG_ERROR("repair: copy of ", key, " to ", t->name,
                          " failed: ", st.to_string());
      };
      if (Status st = t->backend->write(key, data); !st.ok()) {
        fail(st);
        continue;
      }
      if (Status st = t->backend->sync(); !st.ok()) {
        fail(st);
        continue;
      }
      if (Status st = t->backend->write(marker_key, marker_bytes); !st.ok()) {
        fail(st);
        continue;
      }
      if (health != nullptr) health->record_success(t->name);
      pass.bytes += cost;
      ++pass.copies;
      robs.copies_total.add();
      robs.bytes_total.add(cost);
      domains.insert(t->failure_domain);
      --need;
    }
    if (need == 0) {
      ++pass.repaired;
      robs.records_repaired_total.add();
      replicator_.clear_lag(key);
    } else {
      ++pass.remaining;
    }
  }

  replicator_.refresh_lag();
  robs.under_replicated.set(static_cast<std::int64_t>(pass.remaining));
  return pass;
}

bool QuorumRepairEngine::repair_until_quorum(std::size_t max_passes) {
  for (std::size_t i = 0; i < max_passes; ++i) {
    const Pass pass = run_once();
    if (pass.remaining == 0) return true;
    // A pass that neither copied nor ran out of budget cannot make
    // progress next time either (no source / no destination).
    if (pass.copies == 0 && !pass.budget_exhausted) return false;
  }
  return false;
}

}  // namespace lowdiff::tier
