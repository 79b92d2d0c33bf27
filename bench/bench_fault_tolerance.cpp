/// \file bench_fault_tolerance.cpp
/// Fault-tolerance cost/benefit: what the atomic commit protocol costs per
/// write, and what it buys — recovery success under injected storage faults
/// (transient write errors + silent bit flips) at 0 %, 1 %, and 5 % rates.
///
/// Success means recovery returned a bit-exact prefix state without
/// throwing; every corrupt record encountered must be CRC-detected and
/// degraded around (skipped diffs / older full), never silently consumed.

#include <algorithm>
#include <functional>
#include <memory>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "compress/topk.h"
#include "core/recovery.h"
#include "core/trainer.h"
#include "storage/atomic_commit.h"
#include "storage/fault_injection.h"
#include "storage/mem_storage.h"
#include "support/chaos.h"
#include "tier/health.h"
#include "tier/replicator.h"
#include "tier/topology.h"

namespace {

using namespace lowdiff;

constexpr double kRho = 0.05;

MlpConfig mlp() {
  MlpConfig cfg;
  cfg.input_dim = 10;
  cfg.hidden = {20, 16};
  cfg.num_classes = 5;
  return cfg;
}

TrainerConfig trainer_cfg(std::uint64_t seed) {
  TrainerConfig cfg;
  cfg.world = 2;
  cfg.batch_size = 16;
  cfg.rho = kRho;
  cfg.seed = seed;
  return cfg;
}

RetryPolicy fast_policy() {
  RetryPolicy p;
  p.max_attempts = 6;
  p.base_delay_sec = 1e-6;
  p.max_delay_sec = 1e-5;
  return p;
}

// The timing tables write over a fixed set of keys, so every timed write
// overwrites an object of the same size instead of paying page faults and
// map growth for a new one.
constexpr int kTimingKeys = 64;
constexpr std::size_t kTimingRounds = 7;

std::vector<std::string> timing_keys() {
  std::vector<std::string> keys;
  for (int i = 0; i < kTimingKeys; ++i) {
    keys.push_back("obj/" + std::to_string(i));
  }
  return keys;
}

/// Times one pass of every mode: an untimed warm-up pass each, then
/// kTimingRounds rounds with the mode order rotated by one per round, so no
/// mode always runs first.  Returns each mode's pass times in ms, sorted.
std::vector<std::vector<double>> time_rounds(
    const std::vector<std::function<void()>>& passes) {
  for (const auto& pass : passes) pass();
  std::vector<std::vector<double>> ms(passes.size());
  for (std::size_t round = 0; round < kTimingRounds; ++round) {
    for (std::size_t k = 0; k < passes.size(); ++k) {
      const std::size_t m = (k + round) % passes.size();
      Stopwatch sw;
      passes[m]();
      ms[m].push_back(sw.elapsed_sec() * 1e3);
    }
  }
  for (auto& v : ms) std::sort(v.begin(), v.end());
  return ms;
}

double median(const std::vector<double>& sorted) {
  return sorted[sorted.size() / 2];
}

/// One row per mode: median pass time, its range, the median per write and
/// the median's overhead against the first mode's median.
void emit_timing(bench::Table& table, const std::vector<const char*>& names,
                 const std::vector<std::vector<double>>& ms, int writes) {
  for (std::size_t m = 0; m < names.size(); ++m) {
    const double med = median(ms[m]);
    table.row(names[m], writes, bench::Table::fmt(med, 2),
              bench::Table::fmt(ms[m].front(), 2),
              bench::Table::fmt(ms[m].back(), 2),
              bench::Table::fmt(med * 1e3 / writes, 3),
              bench::Table::pct(med / median(ms[0]) - 1.0));
  }
  table.emit();
}

}  // namespace

int main(int argc, char** argv) {
  lowdiff::bench::parse_args(argc, argv);
  set_log_level(LogLevel::kOff);  // expected fault/corruption log lines

  bench::header("bench_fault_tolerance",
                "Atomic commit overhead and recovery under injected faults");

  // --- commit protocol overhead -------------------------------------------------
  {
    bench::Table table(
        "Per-write cost of durability layers (5000 x 64 KiB over 64 keys, "
        "MemStorage, median of 7 rounds)",
        {"mode", "writes", "median_ms", "min_ms", "max_ms", "per_write_us",
         "overhead_vs_raw"},
        "fault_tolerance_commit.csv");

    constexpr int kWrites = 5000;
    const std::vector<std::byte> payload(64 * 1024, std::byte{0x5A});
    const std::vector<std::string> keys = timing_keys();
    const RetryPolicy policy = fast_policy();
    Xoshiro256 rng(17);
    MemStorage raw_mem, retry_mem, commit_mem;

    const auto ms = time_rounds({
        [&] {
          for (int i = 0; i < kWrites; ++i) {
            (void)raw_mem.write(keys[i % kTimingKeys], payload);
          }
        },
        [&] {
          for (int i = 0; i < kWrites; ++i) {
            (void)write_with_retry(retry_mem, keys[i % kTimingKeys], payload,
                                   policy, rng);
          }
        },
        [&] {
          for (int i = 0; i < kWrites; ++i) {
            (void)committed_write(commit_mem, keys[i % kTimingKeys], payload,
                                  policy, rng);
          }
        },
    });
    emit_timing(table,
                {"raw write", "retried write",
                 "committed write (data+sync+marker+CRC)"},
                ms, kWrites);
  }

  // --- recovery success vs injected fault rate -----------------------------------
  {
    bench::Table table(
        "Recovery after a 30-iteration LowDiff run on faulty storage "
        "(20 trials per rate)",
        {"error_rate", "trials", "recovered", "success_rate",
         "mean_corrupt_skipped", "mean_retries", "mean_recovered_iter"},
        "fault_tolerance.csv");

    constexpr int kTrials = 20;
    constexpr std::uint64_t kIters = 30;

    for (const double rate : {0.0, 0.01, 0.05}) {
      int recovered_ok = 0;
      double corrupt_sum = 0.0, retries_sum = 0.0, iter_sum = 0.0;
      for (int trial = 0; trial < kTrials; ++trial) {
        FaultSpec spec;
        spec.write_error_rate = rate;
        spec.bit_flip_rate = rate;
        spec.seed = 0xbe9c0000 + static_cast<std::uint64_t>(rate * 1000) * 64 +
                    static_cast<std::uint64_t>(trial);
        auto faulty = std::make_shared<FaultInjectingStorage>(
            std::make_shared<MemStorage>(), spec);
        auto store = std::make_shared<CheckpointStore>(faulty, fast_policy());

        const TrainerConfig cfg = trainer_cfg(900 + static_cast<std::uint64_t>(trial));
        Trainer trainer(mlp(), cfg);
        LowDiffStrategy::Options opt;
        opt.batch_size = 2;
        opt.full_interval = 8;
        {
          auto strategy = std::make_unique<LowDiffStrategy>(store, opt);
          trainer.run(0, kIters, strategy.get());
          strategy->flush();
        }
        faulty->set_armed(false);

        RecoveryEngine engine(trainer.spec(), trainer.make_optimizer(),
                              TopKCompressor(kRho).clone());
        RecoveryReport report;
        try {
          const ModelState state = engine.recover_serial(*store, &report);
          ++recovered_ok;
          corrupt_sum += static_cast<double>(report.corrupt_diffs_skipped +
                                             report.corrupt_fulls_skipped);
          retries_sum += static_cast<double>(report.retries);
          iter_sum += static_cast<double>(report.final_iteration);
        } catch (const Error&) {
          // No valid full checkpoint survived — counted as a failed recovery.
        }
      }
      table.row(bench::Table::pct(rate), kTrials, recovered_ok,
                bench::Table::pct(static_cast<double>(recovered_ok) / kTrials),
                bench::Table::fmt(corrupt_sum / std::max(recovered_ok, 1), 2),
                bench::Table::fmt(retries_sum / std::max(recovered_ok, 1), 1),
                bench::Table::fmt(iter_sum / std::max(recovered_ok, 1), 1));
    }
    table.emit();
  }

  // --- health-monitor overhead on the replicated write path ----------------
  // The self-healing runtime (DESIGN.md §9) adds a deadline check and a
  // breaker lookup to every lane op.  Time the same replicated write loop
  // with the monitor off and on, interleaved as in the table above; the
  // acceptance bar is < 2% added stall on the healthy path.
  {
    bench::Table table(
        "Health-monitor overhead, 2@local,peer replicated writes "
        "(healthy cluster, 2000 x 16 KiB over 64 keys, median of 7 rounds)",
        {"mode", "writes", "median_ms", "min_ms", "max_ms", "per_write_us",
         "overhead_vs_off"},
        "fault_tolerance_monitor.csv");

    constexpr int kWrites = 2000;
    const std::vector<std::byte> payload(16 * 1024, std::byte{0x5A});
    const std::vector<std::string> keys = timing_keys();

    auto make_replicator = [](bool monitored) {
      sim::ClusterSpec cluster;
      cluster.num_gpus = 2 * cluster.gpus_per_server;
      tier::TierSimOptions topts;
      topts.time_scale = 1e-7;  // link accounting runs, wall time doesn't
      auto topo = tier::TierTopology::for_cluster(cluster, topts);
      tier::ReplicatorOptions opts;
      opts.origin_server = 0;
      if (monitored) {
        opts.health = std::make_shared<tier::TierHealthMonitor>();
        opts.deadline.write_deadline_sec = 1.0;  // checked, never fires
        opts.deadline.sync_deadline_sec = 1.0;
      }
      return std::make_unique<tier::Replicator>(
          topo, tier::PlacementPolicy::parse("2@local,peer"), opts);
    };
    const auto off = make_replicator(false);
    const auto on = make_replicator(true);
    auto pass = [&](tier::Replicator& rep) {
      for (int i = 0; i < kWrites; ++i) {
        (void)rep.write(keys[i % kTimingKeys], payload);
      }
      rep.flush();
    };

    const auto ms = time_rounds({[&] { pass(*off); }, [&] { pass(*on); }});
    emit_timing(table, {"monitor off", "monitor on (deadline + breaker gate)"},
                ms, kWrites);
    obs::Registry::global()
        .gauge("fault_tolerance.monitor.overhead_frac")
        .set(median(ms[1]) / median(ms[0]) - 1.0);
  }

  // --- breaker + repair under fire -----------------------------------------
  // One chaos campaign so the breaker (`tier.health.*`) and repair
  // (`repair.*`) series land in this bench's --json artifact next to the
  // commit-protocol numbers they complement.
  {
    bench::Table table(
        "One chaos campaign (seed 1): breakers + budgeted quorum repair",
        {"kills", "sickenings", "repair_passes", "repair_copies",
         "short_circuits", "failed_puts", "forced_fulls", "bit_exact",
         "quorum_restored"},
        "fault_tolerance_chaos.csv");
    const auto r = tier::ChaosRunner().run(1);
    table.row(r.kills, r.sickenings, r.repair_passes, r.repair_copies,
              r.short_circuits, r.failed_puts, r.forced_fulls,
              r.bit_exact ? "yes" : "NO", r.quorum_restored ? "yes" : "NO");
    table.emit();
  }

  lowdiff::bench::dump_registry_json();
  return 0;
}
