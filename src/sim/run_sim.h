#pragma once

/// \file run_sim.h
/// Long-horizon training simulation with failure injection — produces the
/// paper's wasted-time (Exp. 3, Table I) and effective-training-time-ratio
/// (Exp. 9, 10) metrics.
///
/// Accounting follows §2.2: wasted time = steady-state checkpointing
/// overhead + recovery overhead (checkpoint loading/replay + re-executed
/// work); the effective ratio is productive training time over wall time.

#include <cstdint>

#include "sim/failure.h"
#include "sim/strategy_model.h"

namespace lowdiff::sim {

struct FailureRunConfig {
  /// Productive training required, measured in no-checkpoint baseline
  /// seconds (the job is "done" after this much pure training).
  double train_work_sec = 3600.0;
  double mtbf_sec = 3600.0;
  std::uint64_t seed = 1;
  /// Probability that an injected failure is a software failure (§5.3).
  double software_fraction = 0.5;
  /// Fixed restart cost per failure (process respawn, rendezvous, CUDA
  /// context init) — identical across strategies.
  double restart_overhead_sec = 15.0;
};

struct FailureRunResult {
  double wall_time = 0.0;       ///< total seconds to finish the job
  double wasted_time = 0.0;     ///< wall_time - train_work_sec
  double effective_ratio = 0.0; ///< train_work_sec / wall_time
  std::uint64_t failures = 0;
  double overhead_time = 0.0;   ///< steady-state checkpointing overhead
  double recovery_time = 0.0;   ///< restart + load + replay
  double redo_time = 0.0;       ///< re-executed lost work
};

/// Runs the job to completion under failure injection.  Deterministic for
/// a given seed.  Since the discrete-event rewrite (DESIGN.md §11) this
/// routes through the scenario engine's legacy path (memoized step costs,
/// batched failure draws) and is gated bit-identical to the scalar
/// reference engine (tests/support/sim_reference.h) by bench_sim and the
/// checked-in goldens.
FailureRunResult run_with_failures(const ClusterSpec& cluster,
                                   const Workload& workload,
                                   const StrategyConfig& strategy,
                                   const FailureRunConfig& run);

/// Closed forms shared by the reference engine and the memoized step-cost
/// table (scenario.h) — §2.2 / §4.3 accounting.

/// Expected iterations of lost work per failure (average case — a failure
/// lands uniformly within a checkpoint window).  kNone returns 0; the
/// caller is responsible for the all-progress-lost special case.
double expected_lost_iterations(const StrategyTimeline& timeline,
                                FailureType type);

/// Expected differential checkpoints replayed during one recovery.
std::uint64_t expected_replay_diffs(const StrategyConfig& cfg);

}  // namespace lowdiff::sim
