#pragma once

/// \file scenario.h
/// Fleet-scale failure scenarios and the discrete-event engine that runs
/// them (DESIGN.md §11).  Extends the legacy single-process failure walk of
/// run_sim.h along the axes the end-to-end-simulation survey (PAPERS.md)
/// names for credible large-scale models:
///
///  - fleets of 1k–10k workers with flat SoA per-worker state,
///  - elastic membership (graceful leave + delayed rejoin),
///  - stragglers (per-worker multiplicative slowdown episodes),
///  - correlated rack-level failure bursts (failure-domain losses with the
///    same distinct-victim sampling semantics as sample_server_losses),
///  - spot-style preemption with a notice window (a flush fits inside the
///    notice, so checkpointing strategies lose no work — only capacity),
///  - dollar-denominated TCO output (GPU-hours × fleet × $/GPU-hour).
///
/// Two execution paths share one accounting model:
///  - scenarios with no fleet axes enabled (`ScenarioConfig::legacy()`)
///    replay the historical scalar walk with memoized step costs and
///    batched failure draws — bit-identical to run_with_failures_reference
///    in tests/support/sim_reference.h (gated by bench_sim and the
///    checked-in goldens);
///  - scenarios with any fleet axis enabled run on the event core
///    (event_queue.h), processing every failure process as a stream of
///    timed events against SoA fleet state.
///
/// Determinism: every stochastic stream is seeded as
/// SplitMix64(seed ^ tag); results are a pure function of
/// (cluster, workload, strategy, scenario) and independent of the queue
/// backend and of sweep thread counts (test_sim_engine asserts both).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/event_queue.h"
#include "sim/run_sim.h"

namespace lowdiff::sim {

/// Elastic membership: workers leave gracefully (no lost work) and rejoin
/// after a provisioning delay; each membership change pauses training for a
/// short resync (rendezvous + reshard).
struct ElasticSpec {
  double leave_mtbf_sec = 0.0;       ///< mean time between leaves; 0 = off
  double rejoin_delay_mean_sec = 300.0;  ///< leave -> rejoin delay (exponential)
  double resync_sec = 5.0;           ///< training pause per membership change
  std::size_t min_workers = 1;       ///< leaves never shrink the fleet below
};

/// Straggler episodes: a worker's iterations slow by a multiplicative
/// factor drawn as 1 + Exp(slowdown_mean - 1) — mean slowdown_mean,
/// variance (slowdown_mean - 1)^2 — for an Exp(episode_mean_sec) duration.
/// Synchronous data parallelism runs at the pace of the slowest worker.
struct StragglerSpec {
  double onset_mtbf_sec = 0.0;   ///< mean time between onsets; 0 = off
  double slowdown_mean = 1.5;    ///< mean multiplicative slowdown (> 1)
  double episode_mean_sec = 300.0;
};

/// Correlated rack-level failures: bursts wipe a failure domain at once
/// (power/switch loss).  Victims are a distinct uniform sample of the
/// rack's active workers — sample_server_losses semantics, Floyd's
/// algorithm — and return together when the rack is repaired.
struct CorrelatedSpec {
  double burst_mtbf_sec = 0.0;   ///< mean time between bursts; 0 = off
  std::size_t num_racks = 8;     ///< failure domains (workers round-robin)
  double rack_fraction = 1.0;    ///< fraction of the rack's workers killed
  double repair_mean_sec = 600.0;  ///< burst -> rack back online
};

/// Spot-style preemption: a reclaim notice arrives, the worker is taken
/// after `notice_sec`, and replacement capacity arrives later.  The notice
/// window is long enough to flush in-flight checkpoint state, so
/// checkpointing strategies lose capacity but no work.
struct PreemptionSpec {
  double preempt_mtbf_sec = 0.0;  ///< mean time between reclaims; 0 = off
  double notice_sec = 120.0;      ///< reclaim notice window
  double replacement_mean_sec = 300.0;  ///< kill -> replacement online
};

struct CostSpec {
  double gpu_hour_usd = 0.0;  ///< on-demand price per GPU-hour; 0 = no TCO
};

struct ScenarioConfig {
  /// Fleet size in workers (GPUs).  0 = use cluster.num_gpus unchanged;
  /// otherwise overrides it (sync costs re-derive from the new size).
  std::size_t num_workers = 0;
  double train_work_sec = 3600.0;
  double mtbf_sec = 3600.0;  ///< base (cluster-level) failure process
  std::uint64_t seed = 1;
  double software_fraction = 0.5;
  double restart_overhead_sec = 15.0;

  ElasticSpec elastic;
  StragglerSpec stragglers;
  CorrelatedSpec correlated;
  PreemptionSpec preemption;
  CostSpec cost;

  /// True when no fleet axis is enabled — the scenario is expressible in
  /// the historical engine and must reproduce it bit-identically.
  bool legacy() const {
    return elastic.leave_mtbf_sec == 0.0 && stragglers.onset_mtbf_sec == 0.0 &&
           correlated.burst_mtbf_sec == 0.0 &&
           preemption.preempt_mtbf_sec == 0.0;
  }

  /// Legacy bridge: lifts a FailureRunConfig into a scenario (no fleet
  /// axes), preserving every knob.
  static ScenarioConfig from(const FailureRunConfig& run) {
    ScenarioConfig s;
    s.train_work_sec = run.train_work_sec;
    s.mtbf_sec = run.mtbf_sec;
    s.seed = run.seed;
    s.software_fraction = run.software_fraction;
    s.restart_overhead_sec = run.restart_overhead_sec;
    return s;
  }
};

/// Scenario outcome: the legacy accounting plus fleet counters and TCO.
struct FleetRunResult {
  FailureRunResult base;      ///< wall/wasted/ratio/overhead/recovery/redo
  std::uint64_t events = 0;   ///< events processed by the engine
  std::uint64_t rack_bursts = 0;
  std::uint64_t preemptions = 0;  ///< reclaims that actually killed a worker
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t straggler_episodes = 0;
  /// Wall seconds of capacity lost to stragglers / shrunken membership
  /// while training ran (excluded from overhead_time/recovery_time).
  double degraded_time = 0.0;
  /// TCO: the whole fleet bills for every wall second.
  double gpu_hours_total = 0.0;
  double gpu_hours_wasted = 0.0;
  double cost_total_usd = 0.0;
  double cost_wasted_usd = 0.0;
};

/// Memoized steady-state step costs for one (cluster, workload, strategy):
/// everything the per-failure hot loop needs, so StrategyTimeline's closed
/// forms run once per configuration instead of once per run (the
/// grid-sweep bottleneck ROADMAP names).  Values are produced by the exact
/// expressions of the reference engine, so memoized runs stay bit-identical.
struct SteadyCosts {
  double iter_cost = 0.0;        ///< steady-state seconds per iteration
  double iter_baseline = 0.0;    ///< no-checkpoint seconds per iteration
  double productive_frac = 1.0;  ///< iter_baseline / iter_cost
  double lost_sw_sec = 0.0;      ///< expected lost work per software failure
  double lost_hw_sec = 0.0;      ///< expected lost work per hardware failure
  double load_replay_sw_sec = 0.0;  ///< recovery load+replay, software
  double load_replay_hw_sec = 0.0;  ///< recovery load+replay, hardware
  bool strategy_none = false;    ///< kNone: every failure loses everything
};

SteadyCosts compute_steady_costs(const ClusterSpec& cluster,
                                 const Workload& workload,
                                 const StrategyConfig& strategy);

/// Thread-safe memo table over compute_steady_costs.  Sweeps pre-warm it
/// serially (run_sweep), after which parallel cells only read.
class StepCostCache {
 public:
  const SteadyCosts& get(const ClusterSpec& cluster, const Workload& workload,
                         const StrategyConfig& strategy);
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<SteadyCosts>> memo_;
};

/// Runs one scenario to completion.  Deterministic in scenario.seed;
/// independent of `policy` (queue backends are pop-order equivalent) —
/// the knob exists for the benchmarked comparison and tests.
FleetRunResult run_scenario(const ClusterSpec& cluster, const Workload& workload,
                            const StrategyConfig& strategy,
                            const ScenarioConfig& scenario,
                            StepCostCache* cache = nullptr,
                            QueuePolicy policy = QueuePolicy::kAdaptive);

/// Hot-path variant with pre-resolved step costs: skips the memo lookup
/// entirely.  `costs` must come from compute_steady_costs (or a
/// StepCostCache) for the *effective* cluster — cluster with
/// scenario.num_workers applied — or results are meaningless.  run_sweep
/// resolves each cell's costs once during pre-warm and runs cells through
/// this entry.  The workload is already folded into `costs`.
FleetRunResult run_scenario(const ClusterSpec& cluster,
                            const StrategyConfig& strategy,
                            const ScenarioConfig& scenario,
                            const SteadyCosts& costs,
                            QueuePolicy policy = QueuePolicy::kAdaptive);

/// Empirical companion to RepairModel::concurrent_loss_probability: runs
/// the aggregate failure/repair process (arrivals at num_servers/mtbf,
/// exponential repairs) on the event queue for `horizon_sec` and returns
/// the fraction of time at least `overlapping` servers were simultaneously
/// inside a repair window.  test_sim_engine cross-checks this against the
/// M/G/inf closed form at 1k and 10k workers.
double measure_concurrent_downtime(std::size_t num_servers, double mtbf_sec,
                                   double mean_repair_sec,
                                   std::size_t overlapping, double horizon_sec,
                                   std::uint64_t seed,
                                   QueuePolicy policy = QueuePolicy::kAdaptive);

}  // namespace lowdiff::sim
