#include "tier/replicator.h"

#include <algorithm>
#include <set>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/atomic_commit.h"

namespace lowdiff::tier {

namespace {

/// Each lane writer's queue bound.
constexpr std::size_t kWriterQueueDepth = 64;
/// Stream base for the lane writers' jitter RNGs (lane i uses it + i).
constexpr std::uint64_t kLaneSeedBase = 0x5e1f43a1;

/// Aliveness gate: every operation against a tier whose failure domain is
/// down fails with kUnavailable, even when raced by in-flight replica jobs.
/// (The physical model: requests to a dead server cannot land.)
class GatedBackend final : public StorageBackend {
 public:
  GatedBackend(const TierTopology* topo, const TierTarget* target)
      : topo_(topo), target_(target) {}

  Status write(const std::string& key, std::span<const std::byte> bytes) override {
    if (!alive()) return down();
    return target_->backend->write(key, bytes);
  }
  Result<std::vector<std::byte>> read(const std::string& key) const override {
    if (!alive()) return Result<std::vector<std::byte>>(down());
    return target_->backend->read(key);
  }
  bool exists(const std::string& key) const override {
    return alive() && target_->backend->exists(key);
  }
  void remove(const std::string& key) override {
    if (alive()) target_->backend->remove(key);
  }
  std::vector<std::string> list() const override {
    if (!alive()) return {};
    return target_->backend->list();
  }
  StorageStats stats() const override { return target_->backend->stats(); }
  Status sync() override {
    if (!alive()) return down();
    return target_->backend->sync();
  }

 private:
  bool alive() const { return topo_->alive(*target_); }
  Status down() const {
    return Status(ErrorCode::kUnavailable,
                  "tier " + target_->name + ": failure domain is down");
  }

  const TierTopology* topo_;
  const TierTarget* target_;
};

/// Breaker gate + outcome observer, innermost caller-facing layer of a
/// lane's stack: Monitored(Deadline(Gated(target.backend))).  Mutating ops
/// consult admit() — an Open breaker rejects with non-retryable
/// kCircuitOpen before the device (or its simulated link) is touched, so a
/// retry loop above exits on attempt one.  Every completed op's outcome is
/// reported back to the monitor; kNotFound is an answer, not a failure.
class MonitoredBackend final : public StorageBackend {
 public:
  MonitoredBackend(std::shared_ptr<StorageBackend> inner, std::string name,
                   TierHealthMonitor* health)
      : inner_(std::move(inner)), name_(std::move(name)), health_(health) {}

  Status write(const std::string& key, std::span<const std::byte> bytes) override {
    if (health_ != nullptr && !health_->admit(name_)) {
      return rejected("write", key);
    }
    return observe(inner_->write(key, bytes));
  }
  Result<std::vector<std::byte>> read(const std::string& key) const override {
    // Reads are not admit()-gated — candidate filtering upstream already
    // skipped hard-open lanes, and a read that does land doubles as a
    // breaker probe via the outcome report.
    auto result = inner_->read(key);
    if (health_ != nullptr) {
      if (result.ok() || result.status().code() == ErrorCode::kNotFound) {
        health_->record_success(name_);
      } else {
        health_->record_failure(name_, result.status().code());
      }
    }
    return result;
  }
  bool exists(const std::string& key) const override {
    return inner_->exists(key);  // metadata probe: never gated or scored
  }
  void remove(const std::string& key) override { inner_->remove(key); }
  std::vector<std::string> list() const override { return inner_->list(); }
  StorageStats stats() const override { return inner_->stats(); }
  Status sync() override {
    if (health_ != nullptr && !health_->admit(name_)) {
      return rejected("sync", "<barrier>");
    }
    return observe(inner_->sync());
  }

 private:
  Status observe(Status status) {
    if (health_ != nullptr) {
      if (status.ok() || status.code() == ErrorCode::kNotFound) {
        health_->record_success(name_);
      } else {
        health_->record_failure(name_, status.code());
      }
    }
    return status;
  }
  Status rejected(const char* op, const std::string& key) const {
    return Status(ErrorCode::kCircuitOpen, std::string(op) + " of '" + key +
                                               "' short-circuited: tier " +
                                               name_ + " breaker is open");
  }

  std::shared_ptr<StorageBackend> inner_;
  std::string name_;
  TierHealthMonitor* health_;
};

struct ReplicationObs {
  obs::Counter& records_total;
  obs::Counter& degraded_total;
  obs::Counter& replica_jobs_total;
  obs::Counter& best_effort_total;

  static ReplicationObs resolve() {
    auto& reg = obs::Registry::global();
    return ReplicationObs{reg.counter("tier.replication.records_total"),
                          reg.counter("tier.replication.degraded_total"),
                          reg.counter("tier.replication.replica_jobs_total"),
                          reg.counter("tier.replication.best_effort_total")};
  }
};

}  // namespace

struct Replicator::Lane {
  TierTarget* target;
  /// All traffic goes through Monitored(Deadline(Gated(backend))), which
  /// owns the layers beneath it.
  std::shared_ptr<MonitoredBackend> io;
  std::unique_ptr<AsyncWriter> writer;
  obs::Counter& writes_total;
  obs::Counter& bytes_written_total;
  obs::Counter& reads_total;
  obs::Counter& bytes_read_total;
  obs::Counter& read_corrupt_total;

  static std::unique_ptr<AsyncWriter> make_writer(
      std::shared_ptr<StorageBackend> backend, const ReplicatorOptions& opt,
      std::size_t lane_index) {
    AsyncWriter::Options w;
    w.max_pending = kWriterQueueDepth;
    w.retry = opt.replica_retry;
    // Distinct stream per lane: decorrelated jitter, still a pure function
    // of (replica_retry.seed, lane_index).
    w.seed = kLaneSeedBase + lane_index;
    return std::make_unique<AsyncWriter>(std::move(backend), w);
  }

  Lane(TierTopology* topo, TierTarget* t, const ReplicatorOptions& opt,
       std::size_t lane_index)
      : target(t),
        io(std::make_shared<MonitoredBackend>(
            std::make_shared<DeadlineStorage>(
                std::make_shared<GatedBackend>(topo, t), opt.deadline),
            t->name, opt.health.get())),
        writer(make_writer(io, opt, lane_index)),
        writes_total(obs::Registry::global().counter("tier." + t->name +
                                                     ".writes_total")),
        bytes_written_total(obs::Registry::global().counter(
            "tier." + t->name + ".bytes_written_total")),
        reads_total(obs::Registry::global().counter("tier." + t->name +
                                                    ".reads_total")),
        bytes_read_total(obs::Registry::global().counter("tier." + t->name +
                                                         ".bytes_read_total")),
        read_corrupt_total(obs::Registry::global().counter(
            "tier." + t->name + ".read_corrupt_total")) {}
};

Replicator::Replicator(std::shared_ptr<TierTopology> topology,
                       PlacementPolicy policy, Options options)
    : topology_(std::move(topology)), policy_(std::move(policy)),
      options_(std::move(options)),
      lag_gauge_(obs::Registry::global().gauge(
          "tier.replication.durability_lag_records")) {
  LOWDIFF_ENSURE(topology_ != nullptr, "null topology");
  LOWDIFF_ENSURE(topology_->size() > 0, "empty topology");
  // Lanes pin TierTarget addresses: the topology must be fully built
  // before a Replicator is constructed over it.
  lanes_.reserve(topology_->size());
  for (std::size_t i = 0; i < topology_->size(); ++i) {
    lanes_.push_back(std::make_unique<Lane>(topology_.get(),
                                            &topology_->target(i), options_, i));
  }
}

Replicator::~Replicator() {
  for (auto& lane : lanes_) lane->writer->shutdown();
}

Replicator::Lane& Replicator::lane_of(const TierTarget& target) const {
  for (const auto& lane : lanes_) {
    if (lane->target == &target) return *lane;
  }
  throw Error("tier target " + target.name + " has no lane",
              std::source_location::current());
}

bool Replicator::lane_admitted(const TierTarget& target) const {
  // Non-mutating planning check: a hard-open breaker excludes the lane.
  // The mutating admit() (probe admission, short-circuit accounting) runs
  // inside MonitoredBackend when the op actually reaches the lane.
  return options_.health == nullptr || options_.health->readable(target.name);
}

Status Replicator::write(const std::string& key,
                         std::span<const std::byte> bytes) {
  LOWDIFF_TRACE_SPAN("tier.replicate", "tier");
  static thread_local ReplicationObs robs = ReplicationObs::resolve();

  PlacementPlan plan = policy_.plan(*topology_, options_.origin_server);
  std::erase_if(plan.targets,
                [&](const TierTarget* t) { return !lane_admitted(*t); });
  if (plan.targets.empty()) {
    return Status(ErrorCode::kUnavailable,
                  "no admitted tier target to place " + key);
  }
  const std::size_t quorum = policy_.quorum();

  robs.records_total.add();
  if (plan.degraded) robs.degraded_total.add();
  if (plan.targets.size() < quorum) {
    // Best effort under quorum: write what is admitted, count it and
    // remember the record so the repair engine (or a later refresh) can
    // confirm when it catches up.
    robs.best_effort_total.add();
    if (!is_commit_marker(key)) note_lag(key);
  }

  // Primary replica: synchronous, its status is the caller's status (the
  // CheckpointStore retry/commit machinery wraps this call).
  Lane& primary = lane_of(*plan.targets[0]);
  const Status status = primary.io->write(key, bytes);
  if (status.ok()) {
    primary.writes_total.add();
    primary.bytes_written_total.add(bytes.size());
  }

  // Secondary replicas: async, FIFO per tier (preserves the commit
  // protocol's data-before-marker order within each tier's manifest).
  // One shared immutable copy of the record serves every lane — ByteBuffer
  // copies alias the same bytes, so fan-out cost is O(1) allocations
  // instead of one full copy per replica.
  if (plan.targets.size() > 1) {
    const ByteBuffer shared(std::vector<std::byte>(bytes.begin(), bytes.end()));
    const std::size_t size = shared.size();
    for (std::size_t i = 1; i < plan.targets.size(); ++i) {
      Lane& lane = lane_of(*plan.targets[i]);
      Lane* lane_ptr = &lane;
      robs.replica_jobs_total.add();
      lane.writer->submit(key, shared, [lane_ptr, size] {
        lane_ptr->writes_total.add();
        lane_ptr->bytes_written_total.add(size);
      });
    }
  }

  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.writes;
    stats_.bytes_written += bytes.size() * plan.targets.size();
  }
  return status;
}

std::vector<Replicator::Lane*> Replicator::read_candidates() const {
  std::vector<Lane*> out;
  out.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    if (!topology_->alive(*lane->target)) continue;
    // Breaker-open lanes are not candidates at all: they are never touched,
    // never consume a CRC-fallback slot, never show in read totals.
    if (!lane_admitted(*lane->target)) continue;
    out.push_back(lane.get());
  }
  std::sort(out.begin(), out.end(), [](const Lane* a, const Lane* b) {
    return a->target->read_bytes_per_sec > b->target->read_bytes_per_sec;
  });
  return out;
}

Result<std::vector<std::byte>> Replicator::read(const std::string& key) const {
  LOWDIFF_TRACE_SPAN("tier.read", "tier");
  using R = Result<std::vector<std::byte>>;
  const auto candidates = read_candidates();

  auto account = [&](Lane* lane, std::uint64_t bytes) {
    lane->reads_total.add();
    lane->bytes_read_total.add(bytes);
    const double seconds =
        static_cast<double>(bytes) / lane->target->read_bytes_per_sec;
    {
      std::lock_guard lock(totals_mutex_);
      auto& totals = totals_[lane->target->name];
      ++totals.reads;
      totals.bytes += bytes;
      totals.seconds += seconds;
    }
    std::lock_guard lock(stats_mutex_);
    ++stats_.reads;
    stats_.bytes_read += bytes;
  };
  auto note_corrupt = [&](Lane* lane) {
    lane->read_corrupt_total.add();
    std::lock_guard lock(totals_mutex_);
    ++totals_[lane->target->name].corrupt;
  };

  bool saw_corrupt = false;
  Status last_error(ErrorCode::kNotFound, "no surviving tier holds " + key);

  if (is_commit_marker(key)) {
    // Serve the first marker that *parses* — a bit-flipped marker on the
    // fastest tier must not mask a healthy one elsewhere.
    for (Lane* lane : candidates) {
      if (!lane->io->exists(key)) continue;
      auto marker = lane->io->read(key);
      if (!marker.ok()) {
        last_error = marker.status();
        continue;
      }
      if (!parse_commit_marker(*marker).ok()) {
        saw_corrupt = true;
        note_corrupt(lane);
        continue;
      }
      account(lane, marker->size());
      return marker;
    }
  } else {
    // Verified pass: serve from the fastest tier whose replica matches its
    // own tier's commit manifest; fall across tiers on CRC failure.
    std::vector<Lane*> unverified;
    for (Lane* lane : candidates) {
      if (!lane->io->exists(key)) continue;
      auto marker = lane->io->read(commit_marker_key(key));
      if (!marker.ok()) {
        if (marker.status().code() == ErrorCode::kNotFound) {
          unverified.push_back(lane);  // data landed, marker not (yet) there
        } else {
          last_error = marker.status();
        }
        continue;
      }
      auto record = parse_commit_marker(*marker);
      if (!record.ok()) {
        saw_corrupt = true;
        note_corrupt(lane);
        continue;
      }
      auto data = lane->io->read(key);
      if (!data.ok()) {
        if (data.status().retryable()) {
          last_error = data.status();
        } else {
          saw_corrupt = true;
          note_corrupt(lane);
        }
        continue;
      }
      if (!matches_marker(*data, *record)) {
        saw_corrupt = true;
        note_corrupt(lane);
        continue;
      }
      account(lane, marker->size() + data->size());
      return data;
    }
    // Unverified fallback: uncommitted objects are still readable (the
    // CheckpointStore layer decides what marker-less data means).
    for (Lane* lane : unverified) {
      auto data = lane->io->read(key);
      if (data.ok()) {
        account(lane, data->size());
        return data;
      }
      last_error = data.status();
    }
  }

  if (saw_corrupt) {
    return R(ErrorCode::kCorrupted,
             "every surviving replica of " + key + " failed validation");
  }
  return R(last_error);
}

bool Replicator::exists(const std::string& key) const {
  for (const auto& lane : lanes_) {
    if (lane->io->exists(key)) return true;
  }
  return false;
}

void Replicator::remove(const std::string& key) {
  // Drain replica queues first so a pending job cannot resurrect the key.
  flush();
  for (const auto& lane : lanes_) lane->io->remove(key);
}

std::vector<std::string> Replicator::list() const {
  std::set<std::string> merged;
  for (const auto& lane : lanes_) {
    for (auto& key : lane->io->list()) merged.insert(std::move(key));
  }
  return {merged.begin(), merged.end()};
}

StorageStats Replicator::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

Status Replicator::sync() {
  flush();
  Status first_error;
  for (const auto& lane : lanes_) {
    if (!topology_->alive(*lane->target)) continue;
    // Skip open breakers: syncing a sick tier is pointless and would turn
    // the whole barrier into an error while healthy tiers are fine.
    if (!lane_admitted(*lane->target)) continue;
    if (Status st = lane->io->sync(); !st.ok() && first_error.ok()) {
      first_error = st;
    }
  }
  refresh_lag();
  return first_error;
}

void Replicator::flush() {
  for (const auto& lane : lanes_) lane->writer->flush();
}

std::size_t Replicator::committed_replicas(const std::string& key) const {
  std::size_t count = 0;
  for (const auto& lane : lanes_) {
    if (lane->io->exists(commit_marker_key(key))) ++count;
  }
  return count;
}

bool Replicator::durable(const std::string& key) const {
  return committed_replicas(key) >= policy_.quorum();
}

std::map<std::string, SourceTotals> Replicator::read_totals() const {
  std::lock_guard lock(totals_mutex_);
  return totals_;
}

std::uint64_t Replicator::failed_replica_writes() const {
  std::uint64_t failed = 0;
  for (const auto& lane : lanes_) failed += lane->writer->failed_jobs();
  return failed;
}

std::uint64_t Replicator::writer_retries() const {
  std::uint64_t retries = 0;
  for (const auto& lane : lanes_) retries += lane->writer->retries();
  return retries;
}

void Replicator::note_lag(const std::string& key) {
  std::lock_guard lock(lag_mutex_);
  lag_keys_.insert(key);
  set_lag_gauge_locked();
}

void Replicator::set_lag_gauge_locked() {
  lag_gauge_.set(static_cast<std::int64_t>(lag_keys_.size()));
}

std::vector<std::string> Replicator::lagging_keys() const {
  std::lock_guard lock(lag_mutex_);
  return {lag_keys_.begin(), lag_keys_.end()};
}

void Replicator::clear_lag(const std::string& key) {
  std::lock_guard lock(lag_mutex_);
  lag_keys_.erase(key);
  set_lag_gauge_locked();
}

void Replicator::refresh_lag() {
  std::vector<std::string> caught_up;
  {
    std::lock_guard lock(lag_mutex_);
    if (lag_keys_.empty()) return;
    caught_up.assign(lag_keys_.begin(), lag_keys_.end());
  }
  // durable() probes lanes without the lag lock held (it takes no locks of
  // its own, but keeping the critical section tiny is free here).
  std::erase_if(caught_up,
                [&](const std::string& key) { return !durable(key); });
  std::lock_guard lock(lag_mutex_);
  for (const auto& key : caught_up) lag_keys_.erase(key);
  set_lag_gauge_locked();
}

}  // namespace lowdiff::tier
