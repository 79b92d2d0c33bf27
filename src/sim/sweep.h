#pragma once

/// \file sweep.h
/// Parallel scenario-grid sweeper (DESIGN.md §11).  A sweep is a flat list
/// of self-contained cells — (cluster, workload, strategy, scenario) — run
/// across the shared ThreadPool with deterministic results:
///
///  - each cell's seed is derived as SplitMix64(base_seed ^ cell_index),
///    so cells are statistically independent yet reproducible, and adding
///    a cell never perturbs another cell's stream;
///  - the step-cost memo (StepCostCache) is pre-warmed serially over the
///    distinct (cluster, workload, strategy) keys before the parallel
///    phase, so workers only read it;
///  - results land in a pre-sized vector slot per cell — no locks, no
///    ordering dependence — making sweep output a pure function of the
///    cell list, independent of thread count (asserted by test_sim_engine
///    across {1, 2, 8} threads).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario.h"

namespace lowdiff {
class ThreadPool;
}

namespace lowdiff::sim {

/// One grid cell.  `scenario.seed` is overwritten by the sweeper with the
/// per-cell derived seed unless `keep_seed` is set.
struct SweepCell {
  std::string label;
  ClusterSpec cluster;
  Workload workload;
  StrategyConfig strategy;
  ScenarioConfig scenario;
  bool keep_seed = false;  ///< run with scenario.seed exactly as given
};

struct SweepOptions {
  std::uint64_t base_seed = 1;
};

struct SweepCellResult {
  std::string label;
  std::string strategy_name;
  std::size_t workers = 0;
  FleetRunResult run;
};

/// Per-strategy roll-up of a sweep — the dollar-denominated summary every
/// sim bench emits (EXPERIMENTS.md "TCO JSON schema").
struct TcoSummary {
  std::string strategy_name;
  std::size_t cells = 0;
  double gpu_hours_total = 0.0;
  double gpu_hours_wasted = 0.0;
  double cost_total_usd = 0.0;
  double cost_wasted_usd = 0.0;
  double worst_wasted_ratio = 0.0;  ///< max over cells of wasted/wall
};

/// Runs every cell on `pool` (serial if null).  Results are index-aligned
/// with `cells` and independent of the pool's thread count.
std::vector<SweepCellResult> run_sweep(const std::vector<SweepCell>& cells,
                                       const SweepOptions& options,
                                       ThreadPool* pool,
                                       StepCostCache* cache = nullptr);

/// Groups per-cell results by strategy name, accumulating GPU-hours and
/// dollars.  Order: first appearance in `results`.
std::vector<TcoSummary> summarize_tco(const std::vector<SweepCellResult>& results);

}  // namespace lowdiff::sim
