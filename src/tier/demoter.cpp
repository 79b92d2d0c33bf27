#include "tier/demoter.h"

#include "common/logging.h"
#include "core/checkpoint_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/atomic_commit.h"

namespace lowdiff::tier {

namespace {

struct DemoterObs {
  obs::Counter& migrated_total;
  obs::Counter& bytes_moved_total;
  obs::Counter& passes_total;
  obs::Counter& skipped_open_total;

  static DemoterObs resolve() {
    auto& reg = obs::Registry::global();
    return DemoterObs{reg.counter("tier.demoter.migrated_total"),
                      reg.counter("tier.demoter.bytes_moved_total"),
                      reg.counter("tier.demoter.passes_total"),
                      reg.counter("tier.demoter.skipped_open_total")};
  }
};

}  // namespace

Demoter::Demoter(std::shared_ptr<TierTopology> topology, Options options)
    : topology_(std::move(topology)), options_(options) {
  LOWDIFF_ENSURE(topology_ != nullptr, "null topology");
  LOWDIFF_ENSURE(options_.peer_capacity_bytes > 0, "capacity must be positive");
}

Demoter::~Demoter() { stop(); }

Demoter::Pass Demoter::run_once() {
  LOWDIFF_TRACE_SPAN("tier.demote", "tier");
  static thread_local DemoterObs dobs = DemoterObs::resolve();
  dobs.passes_total.add();
  Pass pass;

  auto breaker_open = [&](const TierTarget& t) {
    return options_.health != nullptr && !options_.health->readable(t.name);
  };

  TierTarget* shared = nullptr;
  for (std::size_t i = 0; i < topology_->size(); ++i) {
    auto& t = topology_->target(i);
    if (t.kind != TierKind::kRemoteShared || !topology_->alive(t)) continue;
    if (breaker_open(t)) {
      // Destination is sick: migrating into it would fail record by record.
      ++pass.skipped_open;
      dobs.skipped_open_total.add();
      continue;
    }
    shared = &t;
    break;
  }

  for (std::size_t i = 0; i < topology_->size(); ++i) {
    auto& tier = topology_->target(i);
    if (tier.kind != TierKind::kPeerMemory || !topology_->alive(tier)) continue;
    if (tier.base == nullptr) continue;
    if (breaker_open(tier)) {
      // Source is sick: leave its records alone until the breaker closes
      // (reads would fail and the error path would spin every sweep).
      ++pass.skipped_open;
      dobs.skipped_open_total.add();
      continue;
    }
    if (tier.base->resident_bytes() <= options_.peer_capacity_bytes) continue;
    if (shared == nullptr) {
      ++pass.over_budget;
      continue;
    }

    // The manifest view over this tier alone: committed fulls, ascending.
    const auto fulls = CheckpointStore(tier.backend).manifest().fulls;
    std::size_t next = 0;
    while (tier.base->resident_bytes() > options_.peer_capacity_bytes &&
           next < fulls.size()) {
      const std::uint64_t iter = fulls[next++];  // oldest = coldest first
      const std::string key = CheckpointStore::full_key(iter);
      const std::string marker = commit_marker_key(key);

      if (!is_committed(*shared->backend, key)) {
        auto data = tier.backend->read(key);
        auto marker_bytes = tier.backend->read(marker);
        if (!data.ok() || !marker_bytes.ok()) {
          LOWDIFF_LOG_ERROR("demoter: cannot read ", key, " from ", tier.name,
                            "; leaving it in place");
          continue;
        }
        // Commit order on the destination: data, barrier, marker — the
        // record never has fewer committed replicas than before the move.
        if (Status st = shared->backend->write(key, *data); !st.ok()) continue;
        if (Status st = shared->backend->sync(); !st.ok()) continue;
        if (Status st = shared->backend->write(marker, *marker_bytes); !st.ok()) {
          continue;
        }
        pass.bytes += data->size() + marker_bytes->size();
        dobs.bytes_moved_total.add(data->size() + marker_bytes->size());
      }
      tier.backend->remove(key);
      tier.backend->remove(marker);
      ++pass.migrated;
      dobs.migrated_total.add();
    }
    if (tier.base->resident_bytes() > options_.peer_capacity_bytes) {
      ++pass.over_budget;  // only diffs/batches left, or reads kept failing
    }
  }
  return pass;
}

void Demoter::start() {
  std::lock_guard lock(mutex_);
  if (running_) return;
  running_ = true;
  sweeper_ = std::thread([this] { loop(); });
}

void Demoter::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  if (sweeper_.joinable()) sweeper_.join();
}

void Demoter::loop() {
  std::unique_lock lock(mutex_);
  while (running_) {
    lock.unlock();
    run_once();
    lock.lock();
    cv_.wait_for(lock, options_.interval, [this] { return !running_; });
  }
}

}  // namespace lowdiff::tier
