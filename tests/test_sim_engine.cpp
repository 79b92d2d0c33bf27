#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

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

// --- event queue --------------------------------------------------------------

/// Drives an EventQueue next to a reference model that keeps the pending
/// pushes in push order.  Every pop must return the first element of their
/// stable sort by time: the earliest time, ties in push order.
class QueueChecker {
 public:
  void push(double time) {
    queue_.push(time, EventKind::kFailure, next_id_);
    pending_.push_back({time, next_id_++});
    sorted_ = false;
  }

  /// Pops one event; false (with the failure recorded) on a mismatch.
  bool pop_matches() {
    if (!sorted_) {
      std::stable_sort(pending_.begin(), pending_.end(),
                       [](const Pushed& a, const Pushed& b) {
                         return a.time < b.time;
                       });
      sorted_ = true;
    }
    const Event e = queue_.pop();
    const Pushed want = pending_.front();
    pending_.erase(pending_.begin());
    last_time_ = e.time;
    if (bits(e.time) != bits(want.time) || e.worker != want.id ||
        e.seq != want.id) {
      ADD_FAILURE() << "popped push #" << e.worker << " at t=" << e.time
                    << ", expected push #" << want.id << " at t=" << want.time;
      return false;
    }
    return true;
  }

  bool empty() const { return pending_.empty(); }
  bool queue_empty() const { return queue_.empty(); }
  double last_time() const { return last_time_; }

 private:
  struct Pushed {
    double time;
    std::uint32_t id;
  };
  EventQueue queue_;
  std::vector<Pushed> pending_;
  std::uint32_t next_id_ = 0;
  bool sorted_ = true;
  double last_time_ = 0.0;
};

/// Pushes one random schedule of 50-450 events and checks every pop:
/// spread (exponential) or clustered (one unit-wide band) times, with an
/// exact tie every 7th push.  Interleaved, it pops after about a third of
/// the pushes, each push then landing after the last pop as in a
/// hold-and-fire event loop.
void check_random_schedule(Xoshiro256& rng, int round, bool interleaved) {
  const bool clustered = round % 2 == 1;
  const std::size_t n = 50 + 100 * static_cast<std::size_t>(round % 5);
  QueueChecker q;
  double last_push = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double t = (interleaved ? q.last_time() : 0.0) +
               (clustered ? 1000.0 + rng.uniform_double()
                          : rng.exponential(100.0));
    if (i % 7 == 0 && i > 0) t = last_push;
    q.push(t);
    last_push = t;
    if (interleaved && rng.uniform_below(3) == 0) {
      ASSERT_TRUE(q.pop_matches()) << "round " << round << ", push " << i;
    }
  }
  while (!q.empty()) ASSERT_TRUE(q.pop_matches()) << "round " << round;
  EXPECT_TRUE(q.queue_empty());
}

// The suite is named for the backends EventQueue once had; both tests
// check the one heap against the stable-sort model.
TEST(EventQueueBackends, PopOrderEquivalentOnRandomSchedules) {
  Xoshiro256 rng(99);
  for (int round = 0; round < 10; ++round) {
    check_random_schedule(rng, round, /*interleaved=*/false);
  }

  // Two clusters 1e9 s apart, pushed alternately.
  QueueChecker q;
  for (int i = 0; i < 4000; ++i) {
    q.push((i % 2 == 0 ? 0.0 : 1e9) + rng.uniform_double() * 1e-6);
  }
  while (!q.empty()) ASSERT_TRUE(q.pop_matches());
  EXPECT_TRUE(q.queue_empty());
}

TEST(EventQueueBackends, InterleavedPushPopStaysSorted) {
  Xoshiro256 rng(7);
  for (int round = 0; round < 10; ++round) {
    check_random_schedule(rng, round, /*interleaved=*/true);
  }
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

// --- fleet failure processes: statistical validation --------------------------

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

/// Empirical companion to RepairModel::concurrent_loss_probability: runs
/// the aggregate failure/repair process (arrivals at num_servers/mtbf,
/// exponential repairs) on the event queue for `horizon_sec` and returns
/// the fraction of time at least `overlapping` servers were simultaneously
/// inside a repair window.
double measure_concurrent_downtime(std::size_t num_servers, double mtbf_sec,
                                   double mean_repair_sec,
                                   std::size_t overlapping, double horizon_sec,
                                   std::uint64_t seed) {
  LOWDIFF_ENSURE(num_servers > 0 && mtbf_sec > 0.0, "bad repair-race config");
  // Aggregate M/G/inf view (matching RepairModel): failures arrive at rate
  // num_servers / mtbf; each opens an exponential repair window.
  const double agg_mean = mtbf_sec / static_cast<double>(num_servers);
  Xoshiro256 rng(SplitMix64(seed ^ 0x5EED5ull).next());
  EventQueue queue;
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
