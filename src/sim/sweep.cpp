#include "sim/sweep.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace lowdiff::sim {

std::vector<SweepCellResult> run_sweep(const std::vector<SweepCell>& cells,
                                       const SweepOptions& options,
                                       ThreadPool* pool,
                                       StepCostCache* cache) {
  StepCostCache local_cache;
  StepCostCache* memo = cache ? cache : &local_cache;

  // Serial pre-warm: the timeline calibration (400+ warm iterations per
  // distinct configuration) runs exactly once per memo key, before the
  // parallel phase turns the cache read-only.  Each cell keeps a direct
  // pointer to its costs so the hot phase skips the lookup entirely
  // (pointers are stable — the cache stores unique_ptr values).
  std::vector<const SteadyCosts*> costs(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& cell = cells[i];
    ClusterSpec eff = cell.cluster;
    if (cell.scenario.num_workers > 0) eff.num_gpus = cell.scenario.num_workers;
    costs[i] = &memo->get(eff, cell.workload, cell.strategy);
  }

  std::vector<SweepCellResult> results(cells.size());
  const auto run_cell = [&](std::size_t i) {
    const SweepCell& cell = cells[i];
    ScenarioConfig scenario = cell.scenario;
    if (!cell.keep_seed) {
      scenario.seed = SplitMix64(options.base_seed ^
                                 static_cast<std::uint64_t>(i)).next();
    }
    SweepCellResult& out = results[i];
    out.label = cell.label;
    out.strategy_name = to_string(cell.strategy.kind);
    out.workers = cell.scenario.num_workers > 0 ? cell.scenario.num_workers
                                                : cell.cluster.num_gpus;
    out.run = run_scenario(cell.cluster, cell.strategy, scenario, *costs[i],
                           options.queue);
  };

  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(0, cells.size(), run_cell);
  } else {
    for (std::size_t i = 0; i < cells.size(); ++i) run_cell(i);
  }
  return results;
}

std::vector<TcoSummary> summarize_tco(
    const std::vector<SweepCellResult>& results) {
  std::vector<TcoSummary> out;
  for (const SweepCellResult& r : results) {
    auto it = std::find_if(out.begin(), out.end(), [&](const TcoSummary& s) {
      return s.strategy_name == r.strategy_name;
    });
    if (it == out.end()) {
      out.push_back(TcoSummary{r.strategy_name});
      it = out.end() - 1;
    }
    ++it->cells;
    it->gpu_hours_total += r.run.gpu_hours_total;
    it->gpu_hours_wasted += r.run.gpu_hours_wasted;
    it->cost_total_usd += r.run.cost_total_usd;
    it->cost_wasted_usd += r.run.cost_wasted_usd;
    const double wall = r.run.base.wall_time;
    if (wall > 0.0) {
      it->worst_wasted_ratio =
          std::max(it->worst_wasted_ratio, r.run.base.wasted_time / wall);
    }
  }
  return out;
}

}  // namespace lowdiff::sim
