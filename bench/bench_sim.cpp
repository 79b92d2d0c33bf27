/// \file bench_sim.cpp
/// Self-checking gate for the discrete-event simulation core (DESIGN.md
/// §11).  Not a paper experiment — it guards the rewrite's three promises:
///
///  1. Bit-identity: legacy scenarios through the new engine reproduce the
///     pre-rewrite scalar engine exactly (checked-in goldens + live
///     reference cross-check).  Any mismatch exits non-zero.
///  2. Throughput: the memoized engine sweeps a strategy grid at >= 5x the
///     events/sec of the unmemoized scalar baseline.
///  3. Scale: a 10k-worker x 20-cell scenario grid (elastic membership,
///     stragglers, correlated rack bursts, spot preemption) finishes
///     inside the CI smoke budget (--budget-sec, default 60).
///
/// Also benchmarks the calendar queue against the binary heap on
/// hold-and-fire schedules, and emits the per-strategy TCO roll-up of the
/// 10k grid into BENCH_sim.json.
///
/// Flags beyond bench_util's: --budget-sec=N wall-clock gate for the grid.

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "sim/event_queue.h"
#include "sim/run_sim.h"
#include "sim/scenario.h"
#include "sim/sweep.h"
#include "support/sim_golden.h"
#include "support/sim_reference.h"

namespace lowdiff::sim {
namespace {

using bench::Table;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

ClusterSpec cluster_by_name(const char* name) {
  ClusterSpec c;
  if (std::strcmp(name, "v100x64") == 0) {
    c.gpu = gpus::v100s();
    c.num_gpus = 64;
  }
  return c;
}

// --- gate 1: bit-identity -----------------------------------------------------

bool run_bit_identity_gate(bool smoke) {
  const std::size_t stride = smoke ? 4 : 1;
  std::size_t checked = 0, mismatched = 0;
  for (std::size_t i = 0; i < golden::kNumRows; i += stride) {
    const auto& row = golden::kRows[i];
    const ClusterSpec cluster = cluster_by_name(row.cluster);
    const double rho = row.kind == StrategyKind::kLowDiffPlus ? 0.0 : 0.01;
    const Workload w = Workload::for_model("GPT2-S", cluster.gpu, rho);
    StrategyConfig s;
    s.kind = row.kind;
    s.ckpt_interval = row.ckpt_interval;
    s.full_interval = row.full_interval;
    s.batch_size = row.batch_size;
    FailureRunConfig run;
    run.train_work_sec = golden::kGoldenTrainWorkSec;
    run.mtbf_sec = row.mtbf_sec;
    run.seed = row.seed;
    run.software_fraction = golden::kGoldenSoftwareFraction;

    const FailureRunResult engine = run_with_failures(cluster, w, s, run);
    const FailureRunResult ref = run_with_failures_reference(cluster, w, s, run);
    ++checked;
    const bool golden_ok = bits(engine.wall_time) == row.wall_bits &&
                           bits(engine.wasted_time) == row.wasted_bits &&
                           bits(engine.effective_ratio) == row.ratio_bits &&
                           engine.failures == row.failures &&
                           bits(engine.overhead_time) == row.overhead_bits &&
                           bits(engine.recovery_time) == row.recovery_bits &&
                           bits(engine.redo_time) == row.redo_bits;
    const bool ref_ok = bits(engine.wall_time) == bits(ref.wall_time) &&
                        bits(engine.wasted_time) == bits(ref.wasted_time) &&
                        bits(engine.redo_time) == bits(ref.redo_time);
    if (!golden_ok || !ref_ok) {
      ++mismatched;
      std::printf("[bit-identity] MISMATCH row %zu (%s kind=%d mtbf=%.0f "
                  "seed=%llu) golden_ok=%d ref_ok=%d\n",
                  i, row.cluster, static_cast<int>(row.kind), row.mtbf_sec,
                  static_cast<unsigned long long>(row.seed), golden_ok, ref_ok);
    }
  }
  std::printf("[bit-identity] %zu/%zu golden cells bit-exact\n",
              checked - mismatched, checked);
  auto& reg = obs::Registry::global();
  reg.gauge("sim.gate.golden_cells_checked").set(static_cast<double>(checked));
  reg.gauge("sim.gate.golden_cells_mismatched")
      .set(static_cast<double>(mismatched));
  return mismatched == 0;
}

// --- gate 2: memoized engine vs scalar baseline -------------------------------

std::vector<SweepCell> legacy_grid() {
  std::vector<SweepCell> cells;
  const StrategyKind kinds[] = {
      StrategyKind::kTorchSave, StrategyKind::kCheckFreq, StrategyKind::kGemini,
      StrategyKind::kNaiveDC,   StrategyKind::kLowDiff,
      StrategyKind::kLowDiffPlus, StrategyKind::kPCcheck};
  // The shape of every grid bench (Exp. 3, 9, 10): an MTBF axis x many
  // seeds per strategy.  The timeline calibration is identical across a
  // strategy's (mtbf, seed) cells — exactly what the memo amortizes.
  // Small enough (milliseconds) to run full-size even under --smoke.
  for (const StrategyKind k : kinds) {
    for (const double mtbf : {1800.0, 3600.0, 7200.0}) {
      for (std::size_t seed = 1; seed <= 32; ++seed) {
        SweepCell cell;
        cell.label = std::string(to_string(k)) + "/s" + std::to_string(seed);
        cell.workload = Workload::for_model(
            "GPT2-S", cell.cluster.gpu,
            k == StrategyKind::kLowDiffPlus ? 0.0 : 0.01);
        cell.strategy.kind = k;
        cell.strategy.ckpt_interval = k == StrategyKind::kTorchSave ? 25 : 1;
        cell.strategy.full_interval =
            k == StrategyKind::kNaiveDC || k == StrategyKind::kLowDiff ? 20 : 25;
        cell.scenario.train_work_sec = 4 * 3600.0;
        cell.scenario.mtbf_sec = mtbf;
        cell.scenario.seed = seed;
        cell.keep_seed = true;
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

bool run_speedup_gate(Table& table) {
  const std::vector<SweepCell> cells = legacy_grid();

  // Scalar baseline: the frozen reference engine, re-deriving the timeline
  // closed forms per run — exactly what every grid bench did before the
  // rewrite.
  std::uint64_t baseline_events = 0;
  const auto t0 = Clock::now();
  for (const SweepCell& cell : cells) {
    FailureRunConfig run;
    run.train_work_sec = cell.scenario.train_work_sec;
    run.mtbf_sec = cell.scenario.mtbf_sec;
    run.seed = cell.scenario.seed;
    baseline_events += run_with_failures_reference(cell.cluster, cell.workload,
                                                   cell.strategy, run)
                           .failures;
  }
  const double baseline_sec = seconds_since(t0);

  // Memoized engine, same grid, serial (the speedup is algorithmic — the
  // parallel sweep multiplies it further).
  StepCostCache cache;
  SweepOptions opts;
  const auto t1 = Clock::now();
  const auto results = run_sweep(cells, opts, nullptr, &cache);
  const double engine_sec = seconds_since(t1);
  std::uint64_t engine_events = 0;
  for (const auto& r : results) engine_events += r.run.events;

  const double baseline_eps =
      static_cast<double>(baseline_events) / std::max(1e-9, baseline_sec);
  const double engine_eps =
      static_cast<double>(engine_events) / std::max(1e-9, engine_sec);
  const double speedup = engine_eps / std::max(1e-9, baseline_eps);

  table.row("scalar reference", cells.size(), baseline_events,
            Table::fmt(baseline_sec, 3), Table::fmt(baseline_eps, 0));
  table.row("memoized engine", cells.size(), engine_events,
            Table::fmt(engine_sec, 3), Table::fmt(engine_eps, 0));
  std::printf("[speedup] %.1fx events/sec over scalar baseline (gate: >= 5x)\n",
              speedup);

  auto& reg = obs::Registry::global();
  reg.gauge("sim.gate.baseline_events_per_sec").set(baseline_eps);
  reg.gauge("sim.gate.engine_events_per_sec").set(engine_eps);
  reg.gauge("sim.gate.speedup").set(speedup);
  reg.gauge("sim.gate.memo_entries").set(static_cast<double>(cache.size()));
  return speedup >= 5.0;
}

// --- queue microbenchmark -----------------------------------------------------

double queue_hold_and_fire_eps(QueuePolicy policy, std::size_t pending,
                               std::uint64_t ops) {
  EventQueue q(policy);
  Xoshiro256 rng(7);
  for (std::size_t i = 0; i < pending; ++i) {
    q.push(rng.exponential(100.0), EventKind::kFailure);
  }
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const Event e = q.pop();
    q.push(e.time + rng.exponential(100.0), EventKind::kFailure);
  }
  return static_cast<double>(ops) / std::max(1e-9, seconds_since(t0));
}

void run_queue_bench(bool smoke, Table& table) {
  const std::uint64_t ops = smoke ? 200'000 : 2'000'000;
  auto& reg = obs::Registry::global();
  for (const std::size_t pending : {1'000u, 10'000u, 100'000u}) {
    const double cal = queue_hold_and_fire_eps(QueuePolicy::kCalendar, pending, ops);
    const double heap = queue_hold_and_fire_eps(QueuePolicy::kHeap, pending, ops);
    table.row("pending=" + std::to_string(pending), Table::fmt(cal / 1e6, 2),
              Table::fmt(heap / 1e6, 2), Table::fmt(cal / heap, 2));
    const std::string suffix = std::to_string(pending);
    reg.gauge("sim.queue.calendar_mops." + suffix).set(cal / 1e6);
    reg.gauge("sim.queue.heap_mops." + suffix).set(heap / 1e6);
  }
}

// --- gate 3: the 10k-worker scenario grid -------------------------------------

std::vector<SweepCell> fleet_grid(bool smoke) {
  // 20 cells: 5 strategies x 4 scenario variants at 10k workers (1k in
  // smoke the axes stay identical; only the fleet and horizon shrink).
  const std::size_t workers = smoke ? 1000 : 10000;
  const double horizon = smoke ? 1800.0 : 4 * 3600.0;
  std::vector<SweepCell> cells;
  const StrategyKind kinds[] = {StrategyKind::kTorchSave, StrategyKind::kGemini,
                                StrategyKind::kNaiveDC, StrategyKind::kLowDiff,
                                StrategyKind::kLowDiffPlus};
  struct Variant {
    const char* name;
    void (*apply)(ScenarioConfig&);
  };
  const Variant variants[] = {
      {"elastic",
       [](ScenarioConfig& s) {
         s.elastic.leave_mtbf_sec = 120.0;
         s.elastic.rejoin_delay_mean_sec = 300.0;
       }},
      {"stragglers",
       [](ScenarioConfig& s) {
         s.stragglers.onset_mtbf_sec = 30.0;
         s.stragglers.slowdown_mean = 1.4;
         s.stragglers.episode_mean_sec = 120.0;
       }},
      {"rack_bursts",
       [](ScenarioConfig& s) {
         s.correlated.burst_mtbf_sec = 600.0;
         s.correlated.num_racks = 128;
         s.correlated.rack_fraction = 1.0;
         s.correlated.repair_mean_sec = 300.0;
       }},
      {"spot_preemption",
       [](ScenarioConfig& s) {
         s.preemption.preempt_mtbf_sec = 60.0;
         s.preemption.notice_sec = 120.0;
         s.preemption.replacement_mean_sec = 300.0;
       }},
  };
  for (const StrategyKind k : kinds) {
    for (const Variant& v : variants) {
      SweepCell cell;
      cell.label = std::string(to_string(k)) + "/" + v.name;
      cell.workload = Workload::for_model(
          "GPT2-S", cell.cluster.gpu,
          k == StrategyKind::kLowDiffPlus ? 0.0 : 0.01);
      cell.strategy.kind = k;
      cell.strategy.full_interval =
          k == StrategyKind::kNaiveDC || k == StrategyKind::kLowDiff ? 20 : 100;
      cell.scenario.num_workers = workers;
      cell.scenario.train_work_sec = horizon;
      cell.scenario.mtbf_sec = 1800.0;  // fleet-level base failure process
      cell.scenario.cost.gpu_hour_usd = 2.49;  // on-demand A100 list price
      v.apply(cell.scenario);
      cells.push_back(cell);
    }
  }
  return cells;
}

bool run_fleet_grid_gate(bool smoke, double budget_sec) {
  const std::vector<SweepCell> cells = fleet_grid(smoke);
  ThreadPool pool;
  SweepOptions opts;
  opts.base_seed = 20250809;
  const auto t0 = Clock::now();
  const auto results = run_sweep(cells, opts, &pool);
  const double elapsed = seconds_since(t0);

  std::uint64_t events = 0;
  for (const auto& r : results) events += r.run.events;

  Table grid("10k-worker scenario grid (" + std::to_string(cells.size()) +
                 " cells, " + std::to_string(pool.size()) + " threads)",
             {"cell", "workers", "events", "wall_h", "wasted_h", "eff_ratio",
              "gpu_h_wasted", "usd_wasted"},
            "sim_fleet_grid.csv");
  for (const auto& r : results) {
    grid.row(r.label, r.workers, r.run.events,
             Table::fmt(r.run.base.wall_time / 3600.0, 2),
             Table::fmt(r.run.base.wasted_time / 3600.0, 2),
             Table::fmt(r.run.base.effective_ratio, 4),
             Table::fmt(r.run.gpu_hours_wasted, 1),
             Table::fmt(r.run.cost_wasted_usd, 2));
  }
  grid.emit();

  const auto tco = summarize_tco(results);
  Table tco_table("per-strategy TCO roll-up ($" +
                      Table::fmt(cells[0].scenario.cost.gpu_hour_usd, 2) +
                      "/GPU-hour)",
                  {"strategy", "cells", "gpu_h_total", "gpu_h_wasted",
                   "usd_total", "usd_wasted", "worst_wasted"},
                  "sim_tco.csv");
  for (const auto& t : tco) {
    tco_table.row(t.strategy_name, t.cells, Table::fmt(t.gpu_hours_total, 1),
                  Table::fmt(t.gpu_hours_wasted, 1),
                  Table::fmt(t.cost_total_usd, 2),
                  Table::fmt(t.cost_wasted_usd, 2),
                  Table::pct(t.worst_wasted_ratio));
  }
  tco_table.emit();
  bench::emit_tco_gauges(tco);

  std::printf("[fleet-grid] %zu cells, %llu events in %.2fs (budget %.0fs)\n",
              cells.size(), static_cast<unsigned long long>(events), elapsed,
              budget_sec);
  auto& reg = obs::Registry::global();
  reg.gauge("sim.grid.cells").set(static_cast<double>(cells.size()));
  reg.gauge("sim.grid.workers")
      .set(static_cast<double>(cells[0].scenario.num_workers));
  reg.gauge("sim.grid.events").set(static_cast<double>(events));
  reg.gauge("sim.grid.elapsed_sec").set(elapsed);
  reg.gauge("sim.grid.budget_sec").set(budget_sec);
  reg.gauge("sim.grid.threads").set(static_cast<double>(pool.size()));
  return elapsed <= budget_sec;
}

}  // namespace
}  // namespace lowdiff::sim

int main(int argc, char** argv) {
  using namespace lowdiff::sim;
  argc = lowdiff::bench::parse_args(argc, argv);
  double budget_sec = 60.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--budget-sec=", 0) == 0) {
      budget_sec = std::stod(arg.substr(std::strlen("--budget-sec=")));
    }
  }
  const bool smoke = lowdiff::bench::options().smoke;
  lowdiff::bench::header("bench_sim",
                         "discrete-event engine gates (DESIGN.md §11): "
                         "bit-identity, >=5x events/sec, 10k-worker grid");
  lowdiff::bench::set_cluster(ClusterSpec{});

  const bool bit_ok = run_bit_identity_gate(smoke);

  Table queue_table("event-queue hold-and-fire throughput",
                    {"pending", "calendar Mops", "heap Mops", "cal/heap"},
                    "sim_queue.csv");
  run_queue_bench(smoke, queue_table);
  queue_table.emit();

  Table speed("legacy grid: scalar reference vs memoized engine",
              {"engine", "cells", "failures", "seconds", "events/sec"},
              "sim_speedup.csv");
  const bool speed_ok = run_speedup_gate(speed);
  speed.emit();

  const bool grid_ok = run_fleet_grid_gate(smoke, budget_sec);

  auto& reg = lowdiff::obs::Registry::global();
  reg.gauge("sim.gate.bit_identity_ok").set(bit_ok ? 1.0 : 0.0);
  reg.gauge("sim.gate.speedup_ok").set(speed_ok ? 1.0 : 0.0);
  reg.gauge("sim.gate.grid_budget_ok").set(grid_ok ? 1.0 : 0.0);
  lowdiff::bench::dump_registry_json();

  if (!bit_ok || !speed_ok || !grid_ok) {
    std::printf("[gate] FAILED: bit_identity=%d speedup=%d grid_budget=%d\n",
                bit_ok, speed_ok, grid_ok);
    return 1;
  }
  std::printf("[gate] all sim gates passed\n");
  return 0;
}
