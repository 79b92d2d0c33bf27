#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/batch_rng.h"
#include "common/error.h"

namespace lowdiff::sim {
namespace {

/// Rollback-event cap shared with the reference engine's safety valve.
constexpr std::uint64_t kMaxRollbacks = 200'000;
/// Hard event cap — a runaway-scenario backstop, far above any real run.
constexpr std::uint64_t kMaxEvents = 50'000'000;

/// Stream tags: every stochastic source draws from
/// SplitMix64(seed ^ tag), so adding an axis never perturbs another
/// axis's stream.  kFailureTag matches FailureModel's historical tag.
constexpr std::uint64_t kStragglerTag = 0x57A661Eull;
constexpr std::uint64_t kBurstTag = 0xB0257ull;
constexpr std::uint64_t kPreemptTag = 0x9EE47ull;
constexpr std::uint64_t kElasticTag = 0xE1A571Cull;

/// Batched exponential arrival stream: inter-arrival draws are filled a
/// block at a time (common/batch_rng.h) so the event loop never pays
/// per-draw call overhead.  Victim/magnitude draws come straight off the
/// same generator, interleaved deterministically with the blocks.
class ArrivalStream {
 public:
  ArrivalStream(double mean_sec, std::uint64_t seed)
      : mean_(mean_sec), rng_(SplitMix64(seed).next()) {}

  double next_arrival() {
    if (pos_ == kBlock) {
      fill_exponential(rng_, mean_, block_, kBlock);
      pos_ = 0;
    }
    return block_[pos_++];
  }

  Xoshiro256& rng() { return rng_; }

 private:
  static constexpr std::size_t kBlock = 32;
  double mean_;
  Xoshiro256 rng_;
  double block_[kBlock] = {};
  std::size_t pos_ = kBlock;
};

/// Batched legacy failure source: stream-identical to calling
/// FailureModel::next() per event (the exponential/uniform interleaving is
/// part of the historical stream and must not be reordered), amortizing
/// the per-event call overhead across a block.
class BatchedFailureSource {
 public:
  BatchedFailureSource(double mtbf_sec, std::uint64_t seed,
                       double software_fraction)
      : model_(mtbf_sec, seed, software_fraction) {}

  const FailureEvent& next() {
    if (pos_ == kBlock) {
      model_.fill(block_, kBlock);
      pos_ = 0;
    }
    return block_[pos_++];
  }

 private:
  // Sized so typical runs (tens of failures) waste few tail draws while
  // still amortizing the call overhead.
  static constexpr std::size_t kBlock = 8;
  FailureModel model_;
  FailureEvent block_[kBlock];
  std::size_t pos_ = kBlock;
};

/// Exact-value memo key: every numeric field is appended as raw bytes
/// (doubles by IEEE-754 bit pattern), so two configurations collide only
/// when every calibration input is bit-equal.  Binary packing keeps the
/// lookup an order of magnitude cheaper than formatting — the key build
/// sits on the memoized hot path of every sweep cell.
std::string memo_key(const ClusterSpec& c, const Workload& w,
                     const StrategyConfig& s) {
  std::string key;
  key.reserve(256);
  const auto put = [&key](const void* p, std::size_t n) {
    key.append(static_cast<const char*>(p), n);
  };
  const auto put_d = [&](double v) { put(&v, sizeof v); };
  const auto put_u = [&](std::uint64_t v) { put(&v, sizeof v); };

  key += c.gpu.name;
  key += '\0';
  put_d(c.gpu.compute_scale);
  for (const LinkSpec* link : {&c.gpu.pcie, &c.network, &c.storage, &c.pmem}) {
    put_d(link->bytes_per_sec);
    put_d(link->latency_sec);
    put_d(link->sync_latency_sec);
  }
  put_d(c.storage_read_bytes_per_sec);
  put_d(c.gpu_compress_throughput);
  put_d(c.gpu_diff_throughput);
  put_d(c.cpu_update_throughput);
  put_d(c.cpu_merge_throughput);
  put_u(c.num_gpus);
  put_u(c.gpus_per_server);

  key += w.model;
  key += '\0';
  put_u(w.params);
  put_d(w.iter_compute_sec);
  put_d(w.rho);
  put_u(w.pipeline_stages);

  put_u(static_cast<std::uint64_t>(s.kind));
  put_u(s.ckpt_interval);
  put_u(s.full_interval);
  put_u(s.batch_size);
  put_u(s.persist_interval);
  put_u(s.queue_capacity);
  put_u((s.offload_batching_to_cpu ? 1u : 0u) | (s.zero_copy_queue ? 2u : 0u));
  return key;
}

/// Flat SoA fleet state — per-worker arrays, aggregate caches.
struct FleetState {
  std::vector<std::uint8_t> active;
  std::vector<double> slowdown;
  std::vector<std::uint32_t> stragglers;  ///< workers with slowdown > 1
  std::size_t active_count = 0;

  explicit FleetState(std::size_t workers)
      : active(workers, 1), slowdown(workers, 1.0), active_count(workers) {}

  std::size_t size() const { return active.size(); }

  /// Synchronous data parallelism: throughput is active capacity divided
  /// by the slowest active worker's slowdown.
  double throughput_factor() const {
    if (active_count == 0) return 0.0;
    double max_slow = 1.0;
    for (const std::uint32_t w : stragglers) {
      if (active[w]) max_slow = std::max(max_slow, slowdown[w]);
    }
    return (static_cast<double>(active_count) /
            static_cast<double>(active.size())) /
           max_slow;
  }
};

/// Floyd's distinct-sample over an index range [0, n) — O(count) draws,
/// O(count) memory; shared semantics with sample_server_losses.
std::vector<std::uint32_t> floyd_indices(std::uint32_t n, std::uint32_t count,
                                         Xoshiro256& rng) {
  std::vector<std::uint32_t> out;
  out.reserve(count);
  for (std::uint32_t j = n - count; j < n; ++j) {
    const auto t = static_cast<std::uint32_t>(
        rng.uniform_below(static_cast<std::uint64_t>(j) + 1));
    if (std::find(out.begin(), out.end(), t) != out.end()) {
      out.push_back(j);
    } else {
      out.push_back(t);
    }
  }
  return out;
}

/// The scalar legacy path: the reference walk with the closed forms
/// replaced by their memoized values and the failure draws batched.  Every
/// arithmetic expression matches run_with_failures_reference
/// (tests/support/sim_reference.cpp) term for term — that is the
/// bit-identity contract bench_sim gates.
FleetRunResult run_legacy(const ScenarioConfig& scenario, const SteadyCosts& c) {
  BatchedFailureSource failures(scenario.mtbf_sec, scenario.seed,
                                scenario.software_fraction);

  FleetRunResult out;
  double remaining = scenario.train_work_sec;
  double wall = 0.0;
  double overhead = 0.0;
  double recovery = 0.0;
  double redo = 0.0;
  std::uint64_t n_failures = 0;

  while (remaining > 0.0 && n_failures < kMaxRollbacks) {
    const FailureEvent& ev = failures.next();
    const double time_to_finish = remaining / c.productive_frac;
    if (ev.time >= time_to_finish) {
      wall += time_to_finish;
      overhead += time_to_finish * (1.0 - c.productive_frac);
      remaining = 0.0;
      break;
    }
    wall += ev.time;
    overhead += ev.time * (1.0 - c.productive_frac);
    const double progressed = ev.time * c.productive_frac;
    double lost = ev.type == FailureType::kSoftware ? c.lost_sw_sec
                                                    : c.lost_hw_sec;
    if (c.strategy_none) {
      lost = scenario.train_work_sec - remaining + progressed;
    }
    lost = std::min(lost, scenario.train_work_sec - remaining + progressed);
    remaining = remaining - progressed + lost;
    redo += lost;
    ++n_failures;

    const double load_replay = ev.type == FailureType::kHardware
                                   ? c.load_replay_hw_sec
                                   : c.load_replay_sw_sec;
    const double rec = scenario.restart_overhead_sec + load_replay;
    wall += rec;
    recovery += rec;
  }

  out.base.wall_time = wall;
  out.base.failures = n_failures;
  out.base.overhead_time = overhead;
  out.base.recovery_time = recovery;
  out.base.redo_time = redo;
  const double completed = scenario.train_work_sec - std::max(0.0, remaining);
  out.base.wasted_time = wall - completed;
  out.base.effective_ratio = wall > 0.0 ? completed / wall : 1.0;
  out.events = n_failures;
  return out;
}

/// The event core: heterogeneous failure processes against SoA fleet state.
class ScenarioEngine {
 public:
  ScenarioEngine(const ClusterSpec& cluster,
                 const StrategyConfig& /*strategy*/,
                 const ScenarioConfig& scenario, const SteadyCosts& costs,
                 QueuePolicy policy)
      : scenario_(scenario), c_(costs), queue_(policy),
        fleet_(cluster.num_gpus),
        failures_(scenario.mtbf_sec, scenario.seed,
                  scenario.software_fraction),
        straggler_src_(scenario.stragglers.onset_mtbf_sec,
                       scenario.seed ^ kStragglerTag),
        burst_src_(scenario.correlated.burst_mtbf_sec,
                   scenario.seed ^ kBurstTag),
        preempt_src_(scenario.preemption.preempt_mtbf_sec,
                     scenario.seed ^ kPreemptTag),
        elastic_src_(scenario.elastic.leave_mtbf_sec,
                     scenario.seed ^ kElasticTag) {
    remaining_ = scenario.train_work_sec;
    tf_ = fleet_.throughput_factor();
  }

  FleetRunResult run() {
    schedule_failure();
    if (scenario_.stragglers.onset_mtbf_sec > 0.0) {
      queue_.push(now_ + straggler_src_.next_arrival(),
                  EventKind::kStragglerOnset);
    }
    if (scenario_.correlated.burst_mtbf_sec > 0.0) {
      queue_.push(now_ + burst_src_.next_arrival(), EventKind::kBurst);
    }
    if (scenario_.preemption.preempt_mtbf_sec > 0.0) {
      queue_.push(now_ + preempt_src_.next_arrival(),
                  EventKind::kPreemptNotice);
    }
    if (scenario_.elastic.leave_mtbf_sec > 0.0) {
      queue_.push(now_ + elastic_src_.next_arrival(), EventKind::kLeave);
    }

    while (remaining_ > 0.0 && rollbacks_ < kMaxRollbacks &&
           events_ < kMaxEvents) {
      const Event e = queue_.pop();
      // Does the job finish before the next event?
      if (now_ >= recovery_until_ && tf_ > 0.0) {
        const double t_fin = remaining_ / (c_.productive_frac * tf_);
        if (now_ + t_fin <= e.time) {
          advance_to(now_ + t_fin);
          remaining_ = 0.0;
          break;
        }
      }
      advance_to(e.time);
      ++events_;
      process(e);
    }
    return finalize();
  }

 private:
  void advance_to(double t) {
    const double seg = t - now_;
    now_ = t;
    if (seg <= 0.0) return;
    wall_ += seg;
    if (now_ - seg < recovery_until_) {
      // Whole segment sits inside a recovery window: the kRecoveryDone
      // event at recovery_until_ guarantees no segment straddles the end.
      recovery_ += seg;
      return;
    }
    const double progressed = seg * c_.productive_frac * tf_;
    remaining_ -= progressed;
    overhead_ += seg * (1.0 - c_.productive_frac);
    degraded_ += seg * c_.productive_frac * (1.0 - tf_);
  }

  double work_done() const {
    return scenario_.train_work_sec - std::max(0.0, remaining_);
  }

  /// Rolls the job back (lost_sec of redone work, clamped to completed
  /// progress) and opens/extends a zero-progress recovery window.
  void rollback(double lost_sec, double recovery_sec) {
    if (now_ >= recovery_until_) {
      const double lost = std::min(lost_sec, work_done());
      remaining_ += lost;
      redo_ += lost;
    }
    // Failures landing inside an open recovery window find the job already
    // rolled back; they only extend the outage.
    ++rollbacks_;
    if (recovery_sec > 0.0 || now_ < recovery_until_) {
      recovery_until_ = std::max(recovery_until_, now_) + recovery_sec;
      queue_.push(recovery_until_, EventKind::kRecoveryDone);
    }
  }

  void schedule_failure() {
    const FailureEvent& ev = failures_.next();
    queue_.push(now_ + ev.time, EventKind::kFailure, 0,
                ev.type == FailureType::kSoftware ? 1 : 0);
  }

  void refresh_tf() { tf_ = fleet_.throughput_factor(); }

  void deactivate(std::uint32_t w) {
    if (!fleet_.active[w]) return;
    fleet_.active[w] = 0;
    --fleet_.active_count;
    refresh_tf();
  }

  void activate(std::uint32_t w) {
    if (fleet_.active[w]) return;
    fleet_.active[w] = 1;
    ++fleet_.active_count;
    refresh_tf();
  }

  void process(const Event& e) {
    switch (e.kind) {
      case EventKind::kFailure: {
        const bool software = e.aux == 1;
        ++base_failures_;
        const double lost =
            c_.strategy_none ? work_done()
                             : (software ? c_.lost_sw_sec : c_.lost_hw_sec);
        const double load_replay =
            software ? c_.load_replay_sw_sec : c_.load_replay_hw_sec;
        rollback(lost, scenario_.restart_overhead_sec + load_replay);
        schedule_failure();
        break;
      }
      case EventKind::kBurst: {
        const auto& spec = scenario_.correlated;
        Xoshiro256& rng = burst_src_.rng();
        const std::size_t racks = std::max<std::size_t>(1, spec.num_racks);
        const auto rack = static_cast<std::uint32_t>(
            rng.uniform_below(static_cast<std::uint64_t>(racks)));
        // Workers are assigned to failure domains round-robin.
        std::vector<std::uint32_t> members;
        for (std::uint32_t w = rack; w < fleet_.size();
             w += static_cast<std::uint32_t>(racks)) {
          if (fleet_.active[w]) members.push_back(w);
        }
        if (!members.empty()) {
          const auto count = std::min<std::uint32_t>(
              static_cast<std::uint32_t>(members.size()),
              std::max<std::uint32_t>(
                  1, static_cast<std::uint32_t>(
                         std::ceil(spec.rack_fraction *
                                   static_cast<double>(members.size())))));
          std::vector<std::uint32_t> victims;
          for (const std::uint32_t idx : floyd_indices(
                   static_cast<std::uint32_t>(members.size()), count, rng)) {
            victims.push_back(members[idx]);
          }
          for (const std::uint32_t w : victims) deactivate(w);
          ++rack_bursts_;
          // Machine loss: hardware-failure semantics for the rollback.
          rollback(c_.strategy_none ? work_done() : c_.lost_hw_sec,
                   scenario_.restart_overhead_sec + c_.load_replay_hw_sec);
          const std::uint32_t id = next_burst_id_++;
          burst_victims_[id] = std::move(victims);
          queue_.push(now_ + rng.exponential(spec.repair_mean_sec),
                      EventKind::kBurstRepair, id);
        }
        queue_.push(now_ + burst_src_.next_arrival(), EventKind::kBurst);
        break;
      }
      case EventKind::kBurstRepair: {
        auto it = burst_victims_.find(e.worker);
        if (it != burst_victims_.end()) {
          for (const std::uint32_t w : it->second) activate(w);
          burst_victims_.erase(it);
        }
        break;
      }
      case EventKind::kPreemptNotice: {
        Xoshiro256& rng = preempt_src_.rng();
        const auto w = static_cast<std::uint32_t>(
            rng.uniform_below(static_cast<std::uint64_t>(fleet_.size())));
        queue_.push(now_ + scenario_.preemption.notice_sec,
                    EventKind::kPreemptKill, w);
        queue_.push(now_ + preempt_src_.next_arrival(),
                    EventKind::kPreemptNotice);
        break;
      }
      case EventKind::kPreemptKill: {
        if (fleet_.active[e.worker]) {
          deactivate(e.worker);
          ++preemptions_;
          // The notice window covered a final flush: checkpointing
          // strategies lose no work, only the membership change.  Without
          // any checkpoint (kNone) the job still loses everything.
          rollback(c_.strategy_none ? work_done() : 0.0,
                   scenario_.restart_overhead_sec);
          queue_.push(now_ + preempt_src_.rng().exponential(
                                 scenario_.preemption.replacement_mean_sec),
                      EventKind::kPreemptReplace, e.worker);
        }
        break;
      }
      case EventKind::kPreemptReplace:
        if (!fleet_.active[e.worker]) {
          activate(e.worker);
          rollback(0.0, scenario_.restart_overhead_sec);
        }
        break;
      case EventKind::kLeave: {
        Xoshiro256& rng = elastic_src_.rng();
        const auto w = static_cast<std::uint32_t>(
            rng.uniform_below(static_cast<std::uint64_t>(fleet_.size())));
        if (fleet_.active[w] &&
            fleet_.active_count >
                std::max<std::size_t>(1, scenario_.elastic.min_workers)) {
          deactivate(w);
          ++leaves_;
          // Graceful: state is drained, no work lost — only a resync pause.
          rollback(0.0, scenario_.elastic.resync_sec);
          queue_.push(
              now_ + rng.exponential(scenario_.elastic.rejoin_delay_mean_sec),
              EventKind::kJoin, w);
        }
        queue_.push(now_ + elastic_src_.next_arrival(), EventKind::kLeave);
        break;
      }
      case EventKind::kJoin:
        if (!fleet_.active[e.worker]) {
          activate(e.worker);
          ++joins_;
          rollback(0.0, scenario_.elastic.resync_sec);
        }
        break;
      case EventKind::kStragglerOnset: {
        const auto& spec = scenario_.stragglers;
        Xoshiro256& rng = straggler_src_.rng();
        const auto w = static_cast<std::uint32_t>(
            rng.uniform_below(static_cast<std::uint64_t>(fleet_.size())));
        if (fleet_.active[w] && fleet_.slowdown[w] == 1.0) {
          fleet_.slowdown[w] =
              1.0 + rng.exponential(std::max(1e-9, spec.slowdown_mean - 1.0));
          fleet_.stragglers.push_back(w);
          ++straggler_episodes_;
          refresh_tf();
          queue_.push(now_ + rng.exponential(spec.episode_mean_sec),
                      EventKind::kStragglerEnd, w);
        }
        queue_.push(now_ + straggler_src_.next_arrival(),
                    EventKind::kStragglerOnset);
        break;
      }
      case EventKind::kStragglerEnd: {
        fleet_.slowdown[e.worker] = 1.0;
        auto& s = fleet_.stragglers;
        s.erase(std::remove(s.begin(), s.end(), e.worker), s.end());
        refresh_tf();
        break;
      }
      case EventKind::kRecoveryDone:
        // Recovery state derives from now_ vs recovery_until_; the event
        // exists to bound advance_to() segments at the window edge.
        break;
    }
  }

  FleetRunResult finalize() const {
    FleetRunResult out;
    out.base.wall_time = wall_;
    out.base.failures = base_failures_;
    out.base.overhead_time = overhead_;
    out.base.recovery_time = recovery_;
    out.base.redo_time = redo_;
    const double completed =
        scenario_.train_work_sec - std::max(0.0, remaining_);
    out.base.wasted_time = wall_ - completed;
    out.base.effective_ratio = wall_ > 0.0 ? completed / wall_ : 1.0;
    out.events = events_;
    out.rack_bursts = rack_bursts_;
    out.preemptions = preemptions_;
    out.joins = joins_;
    out.leaves = leaves_;
    out.straggler_episodes = straggler_episodes_;
    out.degraded_time = degraded_;
    return out;
  }

  const ScenarioConfig& scenario_;
  const SteadyCosts& c_;

  EventQueue queue_;
  FleetState fleet_;
  BatchedFailureSource failures_;
  ArrivalStream straggler_src_;
  ArrivalStream burst_src_;
  ArrivalStream preempt_src_;
  ArrivalStream elastic_src_;

  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> burst_victims_;
  std::uint32_t next_burst_id_ = 0;

  double now_ = 0.0;
  double wall_ = 0.0;
  double remaining_ = 0.0;
  double overhead_ = 0.0;
  double recovery_ = 0.0;
  double redo_ = 0.0;
  double degraded_ = 0.0;
  double recovery_until_ = 0.0;
  double tf_ = 1.0;
  std::uint64_t events_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t base_failures_ = 0;
  std::uint64_t rack_bursts_ = 0;
  std::uint64_t preemptions_ = 0;
  std::uint64_t joins_ = 0;
  std::uint64_t leaves_ = 0;
  std::uint64_t straggler_episodes_ = 0;
};

}  // namespace

SteadyCosts compute_steady_costs(const ClusterSpec& cluster,
                                 const Workload& workload,
                                 const StrategyConfig& strategy) {
  // Mirrors the reference engine's preamble and per-failure closed-form
  // evaluations expression for expression — memoization must not be
  // observable in the results.
  StrategyTimeline timeline(cluster, workload, strategy);
  const std::uint64_t warm_iters = std::max<std::uint64_t>(
      400, 4 * std::max(strategy.full_interval, strategy.ckpt_interval));
  const TimelineStats steady = timeline.run(warm_iters);

  SteadyCosts c;
  c.iter_cost = steady.avg_iteration_time();
  c.iter_baseline = timeline.baseline_iteration_time();
  LOWDIFF_CHECK(c.iter_cost >= c.iter_baseline - 1e-12);
  c.productive_frac = c.iter_baseline / c.iter_cost;
  c.lost_sw_sec =
      expected_lost_iterations(timeline, FailureType::kSoftware) *
      c.iter_baseline;
  c.lost_hw_sec =
      expected_lost_iterations(timeline, FailureType::kHardware) *
      c.iter_baseline;
  c.load_replay_sw_sec =
      timeline.load_and_replay_time(expected_replay_diffs(strategy));
  if (strategy.kind == StrategyKind::kLowDiffPlus) {
    // CPU memory lost: reload the persisted replica from storage.
    c.load_replay_hw_sec = static_cast<double>(workload.full_ckpt_bytes()) /
                           cluster.storage_read_bytes_per_sec;
  } else {
    c.load_replay_hw_sec = c.load_replay_sw_sec;
  }
  c.strategy_none = strategy.kind == StrategyKind::kNone;
  return c;
}

const SteadyCosts& StepCostCache::get(const ClusterSpec& cluster,
                                      const Workload& workload,
                                      const StrategyConfig& strategy) {
  const std::string key = memo_key(cluster, workload, strategy);
  {
    std::lock_guard lock(mutex_);
    auto it = memo_.find(key);
    if (it != memo_.end()) return *it->second;
  }
  // Compute outside the lock: distinct keys memoize concurrently.
  auto costs = std::make_unique<SteadyCosts>(
      compute_steady_costs(cluster, workload, strategy));
  std::lock_guard lock(mutex_);
  auto [it, inserted] = memo_.emplace(key, std::move(costs));
  return *it->second;
}

std::size_t StepCostCache::size() const {
  std::lock_guard lock(mutex_);
  return memo_.size();
}

FleetRunResult run_scenario(const ClusterSpec& cluster,
                            const Workload& workload,
                            const StrategyConfig& strategy,
                            const ScenarioConfig& scenario,
                            StepCostCache* cache, QueuePolicy policy) {
  LOWDIFF_ENSURE(scenario.train_work_sec > 0.0,
                 "train_work_sec must be positive");
  LOWDIFF_ENSURE(scenario.mtbf_sec > 0.0, "mtbf_sec must be positive");

  ClusterSpec eff = cluster;
  if (scenario.num_workers > 0) eff.num_gpus = scenario.num_workers;

  SteadyCosts local;
  const SteadyCosts* costs;
  if (cache) {
    costs = &cache->get(eff, workload, strategy);
  } else {
    local = compute_steady_costs(eff, workload, strategy);
    costs = &local;
  }
  return run_scenario(cluster, strategy, scenario, *costs, policy);
}

FleetRunResult run_scenario(const ClusterSpec& cluster,
                            const StrategyConfig& strategy,
                            const ScenarioConfig& scenario,
                            const SteadyCosts& costs, QueuePolicy policy) {
  LOWDIFF_ENSURE(scenario.train_work_sec > 0.0,
                 "train_work_sec must be positive");
  LOWDIFF_ENSURE(scenario.mtbf_sec > 0.0, "mtbf_sec must be positive");

  const std::size_t fleet_size =
      scenario.num_workers > 0 ? scenario.num_workers : cluster.num_gpus;
  FleetRunResult out;
  if (scenario.legacy()) {
    out = run_legacy(scenario, costs);
  } else {
    ClusterSpec eff = cluster;
    eff.num_gpus = fleet_size;
    out = ScenarioEngine(eff, strategy, scenario, costs, policy).run();
  }

  const double fleet = static_cast<double>(fleet_size);
  out.gpu_hours_total = out.base.wall_time * fleet / 3600.0;
  out.gpu_hours_wasted = out.base.wasted_time * fleet / 3600.0;
  out.cost_total_usd = out.gpu_hours_total * scenario.cost.gpu_hour_usd;
  out.cost_wasted_usd = out.gpu_hours_wasted * scenario.cost.gpu_hour_usd;
  return out;
}

double measure_concurrent_downtime(std::size_t num_servers, double mtbf_sec,
                                   double mean_repair_sec,
                                   std::size_t overlapping, double horizon_sec,
                                   std::uint64_t seed, QueuePolicy policy) {
  LOWDIFF_ENSURE(num_servers > 0 && mtbf_sec > 0.0, "bad repair-race config");
  // Aggregate M/G/inf view (matching RepairModel): failures arrive at rate
  // num_servers / mtbf; each opens an exponential repair window.
  const double agg_mean = mtbf_sec / static_cast<double>(num_servers);
  Xoshiro256 rng(SplitMix64(seed ^ 0x5EED5ull).next());
  EventQueue queue(policy);
  queue.push(rng.exponential(agg_mean), EventKind::kFailure);

  double now = 0.0;
  double time_at_or_above = 0.0;
  std::size_t down = 0;
  while (!queue.empty()) {
    const Event e = queue.pop();
    const double t = std::min(e.time, horizon_sec);
    if (down >= overlapping) time_at_or_above += t - now;
    now = t;
    if (e.time >= horizon_sec) break;
    if (e.kind == EventKind::kFailure) {
      ++down;
      queue.push(now + rng.exponential(mean_repair_sec),
                 EventKind::kRecoveryDone);
      queue.push(now + rng.exponential(agg_mean), EventKind::kFailure);
    } else {
      --down;
    }
  }
  return horizon_sec > 0.0 ? time_at_or_above / horizon_sec : 0.0;
}

}  // namespace lowdiff::sim
