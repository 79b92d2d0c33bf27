/// \file bench_fault_tolerance.cpp
/// Fault-tolerance cost/benefit: what the atomic commit protocol costs per
/// write, and what it buys — recovery success under injected storage faults
/// (transient write errors + silent bit flips) at 0 %, 1 %, and 5 % rates.
///
/// Success means recovery returned a bit-exact prefix state without
/// throwing; every corrupt record encountered must be CRC-detected and
/// degraded around (skipped diffs / older full), never silently consumed.

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

}  // namespace

int main(int argc, char** argv) {
  lowdiff::bench::parse_args(argc, argv);
  set_log_level(LogLevel::kOff);  // expected fault/corruption log lines

  bench::header("bench_fault_tolerance",
                "Atomic commit overhead and recovery under injected faults");

  // --- commit protocol overhead -------------------------------------------------
  {
    bench::Table table(
        "Per-write cost of durability layers (5000 x 64 KiB, MemStorage)",
        {"mode", "writes", "wall_ms", "per_write_us", "overhead_vs_raw"},
        "fault_tolerance_commit.csv");

    constexpr int kWrites = 5000;
    const std::vector<std::byte> payload(64 * 1024, std::byte{0x5A});
    const RetryPolicy policy = fast_policy();
    Xoshiro256 rng(17);

    auto time_mode = [&](auto&& op) {
      MemStorage mem;
      Stopwatch sw;
      for (int i = 0; i < kWrites; ++i) {
        op(mem, "obj/" + std::to_string(i));
      }
      return sw.elapsed_sec() * 1e3;
    };

    const double raw_ms = time_mode([&](MemStorage& mem, const std::string& key) {
      (void)mem.write(key, payload);
    });
    const double retry_ms = time_mode([&](MemStorage& mem, const std::string& key) {
      (void)write_with_retry(mem, key, payload, policy, rng);
    });
    const double commit_ms = time_mode([&](MemStorage& mem, const std::string& key) {
      (void)committed_write(mem, key, payload, policy, rng);
    });

    auto emit = [&](const char* mode, double ms) {
      table.row(mode, kWrites, bench::Table::fmt(ms, 2),
                bench::Table::fmt(ms * 1e3 / kWrites, 3),
                bench::Table::pct(ms / raw_ms - 1.0));
    };
    emit("raw write", raw_ms);
    emit("retried write", retry_ms);
    emit("committed write (data+sync+marker+CRC)", commit_ms);
    table.emit();
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
  // breaker lookup to every lane op.  Measure the same replicated write
  // loop with the monitor off and on; the acceptance bar is < 2% added
  // stall on the healthy path.
  {
    bench::Table table(
        "Health-monitor overhead, 2@local,peer replicated writes "
        "(healthy cluster, 16 KiB records)",
        {"mode", "writes", "wall_ms", "per_write_us", "overhead_vs_off"},
        "fault_tolerance_monitor.csv");

    constexpr int kWrites = 2000;
    const std::vector<std::byte> payload(16 * 1024, std::byte{0x5A});

    auto run_mode = [&](bool monitored) {
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
      tier::Replicator rep(topo, tier::PlacementPolicy::parse("2@local,peer"),
                           opts);
      Stopwatch sw;
      for (int i = 0; i < kWrites; ++i) {
        (void)rep.write("obj/" + std::to_string(i), payload);
      }
      rep.flush();
      return sw.elapsed_sec() * 1e3;
    };

    const double off_ms = run_mode(false);
    const double on_ms = run_mode(true);
    const double overhead = on_ms / off_ms - 1.0;
    auto emit = [&](const char* mode, double ms) {
      table.row(mode, kWrites, bench::Table::fmt(ms, 2),
                bench::Table::fmt(ms * 1e3 / kWrites, 3),
                bench::Table::pct(ms / off_ms - 1.0));
    };
    emit("monitor off", off_ms);
    emit("monitor on (deadline + breaker gate)", on_ms);
    table.emit();
    obs::Registry::global()
        .gauge("fault_tolerance.monitor.overhead_frac")
        .set(overhead);
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
