#include "sim/run_sim.h"

#include <algorithm>

#include "sim/scenario.h"

namespace lowdiff::sim {

double expected_lost_iterations(const StrategyTimeline& timeline,
                                FailureType type) {
  const auto& cfg = timeline.config();
  switch (cfg.kind) {
    case StrategyKind::kNone:
      return 0.0;  // handled by the caller: all accumulated progress is lost
    case StrategyKind::kTorchSave:
    case StrategyKind::kCheckFreq:
    case StrategyKind::kGemini:
    case StrategyKind::kPCcheck:
      return static_cast<double>(cfg.ckpt_interval) / 2.0;
    case StrategyKind::kNaiveDC:
      return static_cast<double>(cfg.ckpt_interval) / 2.0;
    case StrategyKind::kLowDiff:
      // Half a batch of differentials is in the CPU buffer on average
      // (§4.3's b/2 term), plus half the diff interval.
      return static_cast<double>(cfg.ckpt_interval) *
             (static_cast<double>(cfg.batch_size) / 2.0 + 0.5);
    case StrategyKind::kLowDiffPlus:
      if (type == FailureType::kSoftware) return 0.5;  // CPU replica intact
      return static_cast<double>(timeline.persist_interval()) / 2.0 + 0.5;
  }
  return 0.0;
}

std::uint64_t expected_replay_diffs(const StrategyConfig& cfg) {
  switch (cfg.kind) {
    case StrategyKind::kNaiveDC:
    case StrategyKind::kLowDiff:
      return cfg.full_interval / std::max<std::uint64_t>(1, cfg.ckpt_interval) / 2;
    default:
      return 0;
  }
}

FailureRunResult run_with_failures(const ClusterSpec& cluster,
                                   const Workload& workload,
                                   const StrategyConfig& strategy,
                                   const FailureRunConfig& run) {
  return run_scenario(cluster, workload, strategy, ScenarioConfig::from(run))
      .base;
}

}  // namespace lowdiff::sim
