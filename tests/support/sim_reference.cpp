#include "support/sim_reference.h"

#include <algorithm>

#include "common/error.h"

namespace lowdiff::sim {

FailureRunResult run_with_failures_reference(const ClusterSpec& cluster,
                                             const Workload& workload,
                                             const StrategyConfig& strategy,
                                             const FailureRunConfig& run) {
  LOWDIFF_ENSURE(run.train_work_sec > 0.0, "train_work_sec must be positive");
  LOWDIFF_ENSURE(run.mtbf_sec > 0.0, "mtbf_sec must be positive");

  // Steady-state per-iteration cost (warm timeline — amortizes full
  // checkpoints and batched writes).
  StrategyTimeline timeline(cluster, workload, strategy);
  const std::uint64_t warm_iters = std::max<std::uint64_t>(
      400, 4 * std::max(strategy.full_interval, strategy.ckpt_interval));
  const TimelineStats steady = timeline.run(warm_iters);
  const double iter_cost = steady.avg_iteration_time();
  const double iter_baseline = timeline.baseline_iteration_time();
  LOWDIFF_CHECK(iter_cost >= iter_baseline - 1e-12);
  // Fraction of wall time that is productive training while running.
  const double productive_frac = iter_baseline / iter_cost;

  FailureModel failures(run.mtbf_sec, run.seed, run.software_fraction);

  FailureRunResult result;
  double remaining = run.train_work_sec;  // productive seconds still needed
  double wall = 0.0;
  double overhead = 0.0;
  double recovery = 0.0;
  double redo = 0.0;
  std::uint64_t n_failures = 0;

  // Safety valve: if a configuration cannot make progress (loss per
  // failure >= progress per failure), stop after a bounded number of
  // failures and report the (dismal) ratio achieved so far.
  constexpr std::uint64_t kMaxFailures = 200'000;

  while (remaining > 0.0 && n_failures < kMaxFailures) {
    const FailureEvent ev = failures.next();
    const double time_to_finish = remaining / productive_frac;
    if (ev.time >= time_to_finish) {
      wall += time_to_finish;
      overhead += time_to_finish * (1.0 - productive_frac);
      remaining = 0.0;
      break;
    }
    // Run until the failure.
    wall += ev.time;
    overhead += ev.time * (1.0 - productive_frac);
    const double progressed = ev.time * productive_frac;
    // Lost tail of work since the last recoverable checkpoint.
    double lost = expected_lost_iterations(timeline, ev.type) * iter_baseline;
    if (strategy.kind == StrategyKind::kNone) {
      lost = run.train_work_sec - remaining + progressed;  // start over
    }
    lost = std::min(lost, run.train_work_sec - remaining + progressed);
    remaining = remaining - progressed + lost;
    redo += lost;
    ++n_failures;

    // Recovery: restart + load + replay.
    double load_replay;
    if (strategy.kind == StrategyKind::kLowDiffPlus &&
        ev.type == FailureType::kHardware) {
      // CPU memory lost: reload the persisted replica from storage.
      load_replay = static_cast<double>(workload.full_ckpt_bytes()) /
                    cluster.storage_read_bytes_per_sec;
    } else {
      load_replay = timeline.load_and_replay_time(expected_replay_diffs(strategy));
    }
    const double rec = run.restart_overhead_sec + load_replay;
    wall += rec;
    recovery += rec;
  }

  result.wall_time = wall;
  result.failures = n_failures;
  result.overhead_time = overhead;
  result.recovery_time = recovery;
  result.redo_time = redo;
  const double completed = run.train_work_sec - std::max(0.0, remaining);
  result.wasted_time = wall - completed;
  result.effective_ratio = wall > 0.0 ? completed / wall : 1.0;
  return result;
}

}  // namespace lowdiff::sim
