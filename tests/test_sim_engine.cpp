#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "common/batch_rng.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "sim/event_queue.h"
#include "sim/failure.h"
#include "sim/run_sim.h"
#include "sim/scenario.h"
#include "sim/sweep.h"
#include "support/sim_golden.h"
#include "support/sim_reference.h"

namespace lowdiff::sim {
namespace {

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

// --- golden bit-identity ------------------------------------------------------

// The legacy path of the event rewrite must reproduce the pre-rewrite
// scalar engine bit for bit — goldens were generated before the rewrite.
TEST(SimGolden, EngineMatchesPreRewriteGoldensBitExactly) {
  for (std::size_t i = 0; i < golden::kNumRows; ++i) {
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

    const FailureRunResult r = run_with_failures(cluster, w, s, run);
    SCOPED_TRACE(testing::Message() << "row " << i << " " << row.cluster
                                    << " kind=" << static_cast<int>(row.kind)
                                    << " mtbf=" << row.mtbf_sec
                                    << " seed=" << row.seed);
    EXPECT_EQ(bits(r.wall_time), row.wall_bits);
    EXPECT_EQ(bits(r.wasted_time), row.wasted_bits);
    EXPECT_EQ(bits(r.effective_ratio), row.ratio_bits);
    EXPECT_EQ(r.failures, row.failures);
    EXPECT_EQ(bits(r.overhead_time), row.overhead_bits);
    EXPECT_EQ(bits(r.recovery_time), row.recovery_bits);
    EXPECT_EQ(bits(r.redo_time), row.redo_bits);
  }
}

// The frozen reference engine must also match — it IS the golden source.
TEST(SimGolden, ReferenceEngineMatchesGoldens) {
  for (std::size_t i = 0; i < golden::kNumRows; i += 7) {  // spot-check
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

    const FailureRunResult r = run_with_failures_reference(cluster, w, s, run);
    EXPECT_EQ(bits(r.wall_time), row.wall_bits) << "row " << i;
    EXPECT_EQ(bits(r.wasted_time), row.wasted_bits) << "row " << i;
  }
}

// --- event queue backends -----------------------------------------------------

// Pop order must be a total, backend-independent function of the pushes.
TEST(EventQueueBackends, PopOrderEquivalentOnRandomSchedules) {
  Xoshiro256 rng(99);
  for (int round = 0; round < 20; ++round) {
    EventQueue cal(QueuePolicy::kCalendar);
    EventQueue heap(QueuePolicy::kHeap);
    const std::size_t n = 50 + 100 * static_cast<std::size_t>(round % 5);
    std::vector<double> times(n);
    // Mix of clustered and spread times, plus exact ties.
    for (std::size_t i = 0; i < n; ++i) {
      times[i] = round % 2 == 0 ? rng.exponential(100.0)
                                : 1000.0 + rng.uniform_double();
      if (i % 7 == 0 && i > 0) times[i] = times[i - 1];  // tie
    }
    for (std::size_t i = 0; i < n; ++i) {
      cal.push(times[i], EventKind::kFailure, static_cast<std::uint32_t>(i));
      heap.push(times[i], EventKind::kFailure, static_cast<std::uint32_t>(i));
    }
    double prev = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Event a = cal.pop();
      const Event b = heap.pop();
      EXPECT_EQ(a.time, b.time);
      EXPECT_EQ(a.worker, b.worker);
      EXPECT_EQ(a.seq, b.seq);
      EXPECT_GE(a.time, prev);
      prev = a.time;
    }
    EXPECT_TRUE(cal.empty());
    EXPECT_TRUE(heap.empty());
  }
}

TEST(EventQueueBackends, InterleavedPushPopStaysSorted) {
  // Hold-and-fire: the canonical DES access pattern.  The calendar's
  // year-circular scan must keep returning a nondecreasing sequence even
  // as new arrivals land ahead of the scan position.
  EventQueue cal(QueuePolicy::kCalendar);
  Xoshiro256 rng(7);
  cal.push(rng.exponential(10.0), EventKind::kFailure);
  double prev = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const Event e = cal.pop();
    EXPECT_GE(e.time, prev);
    prev = e.time;
    cal.push(e.time + rng.exponential(10.0), EventKind::kFailure);
    if (i % 3 == 0) {
      cal.push(e.time + rng.uniform_double(), EventKind::kRecoveryDone);
    }
  }
}

// Adversarially clustered times degrade the calendar; whether or not the
// adaptive facade migrates to the heap, pop order must stay identical.
TEST(EventQueueBackends, AdaptiveMatchesHeapOnDegenerateDistribution) {
  EventQueue adaptive(QueuePolicy::kAdaptive);
  EventQueue heap(QueuePolicy::kHeap);
  Xoshiro256 rng(5);
  // Two far-apart clusters force long empty-bucket scans.
  std::vector<double> times;
  for (int i = 0; i < 4000; ++i) {
    const double t = (i % 2 == 0 ? 0.0 : 1e9) + rng.uniform_double() * 1e-6;
    times.push_back(t);
  }
  for (double t : times) {
    adaptive.push(t, EventKind::kFailure);
    heap.push(t, EventKind::kFailure);
  }
  for (std::size_t i = 0; i < times.size(); ++i) {
    const Event a = adaptive.pop();
    const Event b = heap.pop();
    ASSERT_EQ(a.seq, b.seq) << "diverged at pop " << i;
  }
}

// Scenario results must not depend on the queue backend.
TEST(EventQueueBackends, ScenarioResultsBackendIndependent) {
  ClusterSpec cluster;
  cluster.num_gpus = 256;
  const Workload w = Workload::for_model("GPT2-S", cluster.gpu, 0.01);
  StrategyConfig s;
  s.kind = StrategyKind::kLowDiff;
  s.full_interval = 20;
  ScenarioConfig sc;
  sc.train_work_sec = 2 * 3600.0;
  sc.mtbf_sec = 1800.0;
  sc.seed = 42;
  sc.stragglers.onset_mtbf_sec = 600.0;
  sc.correlated.burst_mtbf_sec = 3600.0;
  sc.preemption.preempt_mtbf_sec = 2400.0;
  sc.elastic.leave_mtbf_sec = 1200.0;

  const FleetRunResult cal =
      run_scenario(cluster, w, s, sc, nullptr, QueuePolicy::kCalendar);
  const FleetRunResult heap =
      run_scenario(cluster, w, s, sc, nullptr, QueuePolicy::kHeap);
  const FleetRunResult adaptive =
      run_scenario(cluster, w, s, sc, nullptr, QueuePolicy::kAdaptive);
  EXPECT_EQ(bits(cal.base.wall_time), bits(heap.base.wall_time));
  EXPECT_EQ(bits(cal.base.wasted_time), bits(heap.base.wasted_time));
  EXPECT_EQ(cal.events, heap.events);
  EXPECT_EQ(cal.rack_bursts, heap.rack_bursts);
  EXPECT_EQ(cal.preemptions, heap.preemptions);
  EXPECT_EQ(bits(adaptive.base.wall_time), bits(heap.base.wall_time));
}

// --- memoization --------------------------------------------------------------

TEST(StepCostCacheTest, MemoizedRunsMatchUncached) {
  const ClusterSpec cluster;
  const Workload w = Workload::for_model("BERT-B", cluster.gpu, 0.01);
  StrategyConfig s;
  s.kind = StrategyKind::kLowDiff;
  FailureRunConfig run;
  run.mtbf_sec = 900.0;
  run.seed = 3;
  StepCostCache cache;
  const ScenarioConfig sc = ScenarioConfig::from(run);
  const FleetRunResult cached = run_scenario(cluster, w, s, sc, &cache);
  const FleetRunResult uncached = run_scenario(cluster, w, s, sc, nullptr);
  const FailureRunResult ref = run_with_failures_reference(cluster, w, s, run);
  EXPECT_EQ(bits(cached.base.wall_time), bits(ref.wall_time));
  EXPECT_EQ(bits(uncached.base.wall_time), bits(ref.wall_time));
  EXPECT_EQ(cache.size(), 1u);
  // Distinct strategies get distinct keys.
  s.ckpt_interval = 2;
  run_scenario(cluster, w, s, sc, &cache);
  EXPECT_EQ(cache.size(), 2u);
}

// --- sweep determinism --------------------------------------------------------

std::vector<SweepCell> make_grid() {
  std::vector<SweepCell> cells;
  const StrategyKind kinds[] = {StrategyKind::kTorchSave, StrategyKind::kLowDiff,
                                StrategyKind::kLowDiffPlus};
  for (const StrategyKind k : kinds) {
    for (const double mtbf : {600.0, 1800.0}) {
      SweepCell cell;
      cell.label = "cell";
      cell.cluster.num_gpus = 128;
      cell.workload = Workload::for_model(
          "GPT2-S", cell.cluster.gpu,
          k == StrategyKind::kLowDiffPlus ? 0.0 : 0.01);
      cell.strategy.kind = k;
      cell.strategy.full_interval = 20;
      cell.scenario.train_work_sec = 1800.0;
      cell.scenario.mtbf_sec = mtbf;
      cell.scenario.stragglers.onset_mtbf_sec = 300.0;
      cell.scenario.preemption.preempt_mtbf_sec = 1200.0;
      cell.scenario.cost.gpu_hour_usd = 2.5;
      cells.push_back(cell);
    }
  }
  return cells;
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  const std::vector<SweepCell> cells = make_grid();
  SweepOptions opts;
  opts.base_seed = 2025;
  std::vector<std::vector<SweepCellResult>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    runs.push_back(run_sweep(cells, opts, &pool));
  }
  // Serial (no pool) as the reference.
  const std::vector<SweepCellResult> serial = run_sweep(cells, opts, nullptr);
  for (const auto& r : runs) {
    ASSERT_EQ(r.size(), serial.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(bits(r[i].run.base.wall_time), bits(serial[i].run.base.wall_time));
      EXPECT_EQ(bits(r[i].run.base.wasted_time),
                bits(serial[i].run.base.wasted_time));
      EXPECT_EQ(r[i].run.events, serial[i].run.events);
      EXPECT_EQ(bits(r[i].run.cost_wasted_usd), bits(serial[i].run.cost_wasted_usd));
    }
  }
}

TEST(Sweep, PerCellSeedsAreSplitMixDerived) {
  std::vector<SweepCell> cells = make_grid();
  SweepOptions opts;
  opts.base_seed = 7;
  // keep_seed pins the scenario seed; the sweeper must not override it.
  cells[0].keep_seed = true;
  cells[0].scenario.seed = 1234;
  const auto res = run_sweep(cells, opts, nullptr);
  // Re-run cell 1 standalone with its derived seed — must match the sweep.
  ScenarioConfig sc = cells[1].scenario;
  sc.seed = SplitMix64(opts.base_seed ^ 1ull).next();
  const FleetRunResult solo =
      run_scenario(cells[1].cluster, cells[1].workload, cells[1].strategy, sc);
  EXPECT_EQ(bits(res[1].run.base.wall_time), bits(solo.base.wall_time));
}

// --- TCO accounting -----------------------------------------------------------

TEST(Tco, DollarAccountingFollowsGpuHours) {
  ClusterSpec cluster;
  cluster.num_gpus = 1000;
  const Workload w = Workload::for_model("GPT2-S", cluster.gpu, 0.01);
  StrategyConfig s;
  s.kind = StrategyKind::kLowDiff;
  s.full_interval = 20;
  ScenarioConfig sc;
  sc.train_work_sec = 3600.0;
  sc.mtbf_sec = 1800.0;
  sc.cost.gpu_hour_usd = 3.0;
  const FleetRunResult r = run_scenario(cluster, w, s, sc);
  EXPECT_DOUBLE_EQ(r.gpu_hours_total, r.base.wall_time * 1000.0 / 3600.0);
  EXPECT_DOUBLE_EQ(r.gpu_hours_wasted, r.base.wasted_time * 1000.0 / 3600.0);
  EXPECT_DOUBLE_EQ(r.cost_total_usd, r.gpu_hours_total * 3.0);
  EXPECT_DOUBLE_EQ(r.cost_wasted_usd, r.gpu_hours_wasted * 3.0);
  EXPECT_GT(r.cost_wasted_usd, 0.0);
  EXPECT_LT(r.cost_wasted_usd, r.cost_total_usd);
}

TEST(Tco, SummaryGroupsByStrategy) {
  const auto res = run_sweep(make_grid(), SweepOptions{}, nullptr);
  const auto tco = summarize_tco(res);
  ASSERT_EQ(tco.size(), 3u);  // three strategies in the grid
  double total = 0.0;
  std::size_t cells = 0;
  for (const auto& t : tco) {
    EXPECT_EQ(t.cells, 2u);
    EXPECT_GT(t.gpu_hours_total, 0.0);
    EXPECT_GE(t.worst_wasted_ratio, 0.0);
    EXPECT_LE(t.worst_wasted_ratio, 1.0);
    total += t.cost_total_usd;
    cells += t.cells;
  }
  EXPECT_EQ(cells, res.size());
  double direct = 0.0;
  for (const auto& r : res) direct += r.run.cost_total_usd;
  EXPECT_NEAR(total, direct, 1e-9);
}

// --- Floyd sampling -----------------------------------------------------------

TEST(FloydSampling, DistinctSortedAndDeterministic) {
  for (const std::size_t n : {10u, 1000u, 10000u}) {
    for (const std::size_t count : {1u, 3u, 9u}) {
      const auto a = sample_server_losses(n, count, 77);
      const auto b = sample_server_losses(n, count, 77);
      EXPECT_EQ(a, b);
      ASSERT_EQ(a.size(), count);
      EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
      EXPECT_EQ(std::set<std::size_t>(a.begin(), a.end()).size(), count);
      for (const std::size_t v : a) EXPECT_LT(v, n);
    }
  }
  // Full wipe.
  const auto all = sample_server_losses(8, 8, 5);
  EXPECT_EQ(all.size(), 8u);
  EXPECT_EQ(all.front(), 0u);
  EXPECT_EQ(all.back(), 7u);
}

// count == 1 consumes the same single uniform_below(n) draw as the old
// partial Fisher-Yates, so historical single-loss picks are unchanged.
TEST(FloydSampling, SingleLossMatchesHistoricalDraw) {
  for (const std::uint64_t seed : {1ull, 9ull, 20250705ull}) {
    for (const std::size_t n : {4u, 64u, 4096u}) {
      Xoshiro256 rng(SplitMix64(seed ^ 0x5E12Fu).next());
      const std::size_t expected = static_cast<std::size_t>(
          rng.uniform_below(static_cast<std::uint64_t>(n)));
      const auto got = sample_server_losses(n, 1, seed);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], expected);
    }
  }
}

TEST(FloydSampling, UniformMarginals) {
  // Each server should be hit ~count/n of the time.
  const std::size_t n = 40, count = 4, trials = 20000;
  std::vector<std::size_t> hits(n, 0);
  for (std::size_t t = 0; t < trials; ++t) {
    for (const std::size_t v : sample_server_losses(n, count, 1000 + t)) {
      ++hits[v];
    }
  }
  const double expect = static_cast<double>(trials * count) / n;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]), expect, 5.0 * std::sqrt(expect))
        << "server " << i;
  }
}

// --- batched RNG --------------------------------------------------------------

TEST(BatchRng, StreamEquivalentToScalarDraws) {
  Xoshiro256 a(123), b(123);
  double batch[64], scalar[64];
  fill_exponential(a, 10.0, batch, 64);
  for (double& v : scalar) v = b.exponential(10.0);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(bits(batch[i]), bits(scalar[i]));

  fill_uniform(a, batch, 64);
  for (double& v : scalar) v = b.uniform_double();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(bits(batch[i]), bits(scalar[i]));

  std::uint64_t bi[64], si[64];
  fill_uniform_below(a, 17, bi, 64);
  for (auto& v : si) v = b.uniform_below(17);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(bi[i], si[i]);
}

TEST(BatchRng, ExponentialMomentsMatchClosedForm) {
  Xoshiro256 rng(55);
  const std::size_t n = 200000;
  std::vector<double> draws(n);
  fill_exponential(rng, 42.0, draws.data(), n);
  double sum = 0.0;
  for (const double d : draws) sum += d;
  const double mean = sum / static_cast<double>(n);
  double var = 0.0;
  for (const double d : draws) var += (d - mean) * (d - mean);
  var /= static_cast<double>(n);
  EXPECT_NEAR(mean, 42.0, 0.5);          // SE ~ 42/sqrt(n) ~ 0.094
  EXPECT_NEAR(var, 42.0 * 42.0, 40.0);   // Var(X) = mean^2
}

// --- fleet failure processes: statistical validation --------------------------

// FailureModel::fill must continue the historical stream exactly.
TEST(FailureProcesses, FillMatchesScalarNext) {
  FailureModel a(3600.0, 11, 0.5), b(3600.0, 11, 0.5);
  FailureEvent block[32];
  a.fill(block, 32);
  for (int i = 0; i < 32; ++i) {
    const FailureEvent ev = b.next();
    EXPECT_EQ(bits(block[i].time), bits(ev.time));
    EXPECT_EQ(block[i].type, ev.type);
  }
}

struct AxisCounts {
  double horizon = 0.0;
  FleetRunResult run;
};

AxisCounts run_axis(const ScenarioConfig& sc) {
  ClusterSpec cluster;
  cluster.num_gpus = 512;
  const Workload w = Workload::for_model("GPT2-S", cluster.gpu, 0.01);
  StrategyConfig s;
  s.kind = StrategyKind::kLowDiff;
  s.full_interval = 20;
  AxisCounts out;
  out.run = run_scenario(cluster, w, s, sc);
  out.horizon = out.run.base.wall_time;
  return out;
}

// Each axis's event count over the run should track horizon / mtbf —
// arrivals are Poisson, so a +/-4 sigma band around the expectation.
TEST(FailureProcesses, StragglerArrivalRateMatchesPoisson) {
  ScenarioConfig sc;
  sc.train_work_sec = 8 * 3600.0;
  sc.mtbf_sec = 1e9;  // base failures effectively off
  sc.seed = 5;
  sc.stragglers.onset_mtbf_sec = 120.0;
  sc.stragglers.slowdown_mean = 1.3;
  sc.stragglers.episode_mean_sec = 60.0;
  const AxisCounts r = run_axis(sc);
  const double expect = r.horizon / 120.0;
  EXPECT_GT(expect, 100.0);  // enough mass for the band to be meaningful
  EXPECT_NEAR(static_cast<double>(r.run.straggler_episodes), expect,
              4.0 * std::sqrt(expect) + 0.05 * expect);
  // Stragglers degrade capacity but never roll the job back.
  EXPECT_GT(r.run.degraded_time, 0.0);
  EXPECT_EQ(r.run.base.failures, 0u);
}

TEST(FailureProcesses, BurstArrivalRateAndVictimSemantics) {
  ScenarioConfig sc;
  sc.train_work_sec = 8 * 3600.0;
  sc.mtbf_sec = 1e9;
  sc.seed = 6;
  sc.correlated.burst_mtbf_sec = 300.0;
  sc.correlated.num_racks = 16;
  sc.correlated.rack_fraction = 0.5;
  sc.correlated.repair_mean_sec = 120.0;
  const AxisCounts r = run_axis(sc);
  const double expect = r.horizon / 300.0;
  EXPECT_NEAR(static_cast<double>(r.run.rack_bursts), expect,
              4.0 * std::sqrt(expect) + 0.05 * expect);
  // Bursts cost rollback work (hardware semantics) and degraded capacity.
  EXPECT_GT(r.run.base.redo_time, 0.0);
  EXPECT_GT(r.run.degraded_time, 0.0);
}

TEST(FailureProcesses, PreemptionLosesCapacityNotWork) {
  ScenarioConfig sc;
  sc.train_work_sec = 8 * 3600.0;
  sc.mtbf_sec = 1e9;
  sc.seed = 8;
  sc.preemption.preempt_mtbf_sec = 400.0;
  sc.preemption.notice_sec = 60.0;
  sc.preemption.replacement_mean_sec = 200.0;
  const AxisCounts r = run_axis(sc);
  const double expect = r.horizon / 400.0;
  EXPECT_NEAR(static_cast<double>(r.run.preemptions), expect,
              4.0 * std::sqrt(expect) + 0.10 * expect);
  // The notice window flushes state: no redone work for a ckpt strategy.
  EXPECT_EQ(r.run.base.redo_time, 0.0);
  EXPECT_GT(r.run.degraded_time, 0.0);
}

TEST(FailureProcesses, ElasticMembershipBalancesAndRespectsFloor) {
  ScenarioConfig sc;
  sc.train_work_sec = 8 * 3600.0;
  sc.mtbf_sec = 1e9;
  sc.seed = 9;
  sc.elastic.leave_mtbf_sec = 300.0;
  sc.elastic.rejoin_delay_mean_sec = 100.0;
  sc.elastic.resync_sec = 1.0;
  sc.elastic.min_workers = 500;  // fleet is 512 — floor binds often
  const AxisCounts r = run_axis(sc);
  EXPECT_GT(r.run.leaves, 0u);
  // Every leave eventually rejoins; in-flight ones may remain at the end.
  EXPECT_LE(r.run.joins, r.run.leaves);
  EXPECT_GE(r.run.joins + 12, r.run.leaves);  // fleet floor bounds in-flight
}

// Straggler slowdown draws follow 1 + Exp(mean - 1): mean = slowdown_mean,
// variance = (slowdown_mean - 1)^2.  Validated on the spec's own formula
// with the engine's stream-splitting tag discipline.
TEST(FailureProcesses, StragglerSlowdownMomentsMatchClosedForm) {
  const double slowdown_mean = 1.8;
  Xoshiro256 rng(SplitMix64(123 ^ 0x57A661Eull).next());
  const std::size_t n = 100000;
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = 1.0 + rng.exponential(slowdown_mean - 1.0);
    sum += s;
    sq += s * s;
  }
  const double mean = sum / static_cast<double>(n);
  const double var = sq / static_cast<double>(n) - mean * mean;
  EXPECT_NEAR(mean, slowdown_mean, 0.02);
  EXPECT_NEAR(var, (slowdown_mean - 1.0) * (slowdown_mean - 1.0), 0.03);
}

// --- RepairModel cross-check --------------------------------------------------

// The simulated fraction of time with >= m concurrent unrepaired failures
// must track the analytic M/G/inf Poisson tail at fleet scale.
TEST(RepairModelCrossCheck, SimulationMatchesAnalyticTailAt1k) {
  const double mtbf = 500'000.0, repair = 600.0;
  const std::size_t n = 1000;
  RepairModel model(mtbf, repair);
  const double analytic = model.concurrent_loss_probability(n, 2);
  const double simulated =
      measure_concurrent_downtime(n, mtbf, repair, 2, 5e6, 31);
  EXPECT_GT(analytic, 1e-4);  // regime where the estimate has support
  EXPECT_NEAR(simulated, analytic, std::max(0.35 * analytic, 2e-4));
}

TEST(RepairModelCrossCheck, SimulationMatchesAnalyticTailAt10k) {
  const double mtbf = 5'000'000.0, repair = 600.0;
  const std::size_t n = 10000;
  RepairModel model(mtbf, repair);
  const double analytic = model.concurrent_loss_probability(n, 2);
  const double simulated =
      measure_concurrent_downtime(n, mtbf, repair, 2, 5e6, 37);
  EXPECT_NEAR(simulated, analytic, std::max(0.35 * analytic, 2e-4));
}

// --- fleet-scale sanity -------------------------------------------------------

TEST(FleetScale, TenThousandWorkerScenarioCompletes) {
  ClusterSpec cluster;
  const Workload w = Workload::for_model("GPT2-S", cluster.gpu, 0.01);
  StrategyConfig s;
  s.kind = StrategyKind::kLowDiffPlus;
  ScenarioConfig sc;
  sc.num_workers = 10000;
  sc.train_work_sec = 3600.0;
  sc.mtbf_sec = 7200.0;
  sc.stragglers.onset_mtbf_sec = 60.0;
  sc.correlated.burst_mtbf_sec = 1800.0;
  sc.correlated.num_racks = 64;
  sc.preemption.preempt_mtbf_sec = 300.0;
  sc.elastic.leave_mtbf_sec = 600.0;
  sc.cost.gpu_hour_usd = 2.0;
  const FleetRunResult r = run_scenario(cluster, w, s, sc);
  EXPECT_GT(r.base.wall_time, sc.train_work_sec);
  EXPECT_GT(r.events, 100u);
  EXPECT_GT(r.gpu_hours_total, 10000.0);  // >1 h x 10k workers
  EXPECT_GT(r.cost_wasted_usd, 0.0);
  // Work conservation: wall = productive + everything accounted as waste.
  EXPECT_NEAR(r.base.wall_time, sc.train_work_sec + r.base.wasted_time, 1e-6);
}

}  // namespace
}  // namespace lowdiff::sim
