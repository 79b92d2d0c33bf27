/// \file bench_chaos.cpp
/// Chaos campaign — the self-healing replication runtime (DESIGN.md §9)
/// under randomized mid-run failure/recovery schedules.
///
/// Each trial is one ChaosRunner campaign: a LowDiff checkpoint loop over
/// the 4-server tiered topology while a seed-deterministic schedule kills
/// failure domains, flaps targets (every write fails) and slows them past
/// the per-op deadline (every op times out), with the health monitor
/// tripping breakers and the QuorumRepairEngine re-earning quorum under a
/// byte budget after every loss.  A campaign passes when (a) recovery from
/// the surviving replicas is bit-exact against the training-time snapshot
/// of the recovered iteration, (b) quorum was restored within the budgeted
/// repair window after every kill, and (c) nothing is left
/// under-replicated at the end.
///
/// The process exit code is the number of failed campaigns, so the
/// `chaos_smoke` ctest entry is a self-checking gate, not a smoke-only
/// build check.
///
/// Schema of the --json artifact: EXPERIMENTS.md ("Chaos campaign").

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "sim/cluster.h"
#include "support/chaos.h"

namespace {

using namespace lowdiff;

struct PolicyTotals {
  std::size_t seeds = 0;
  std::size_t bit_exact = 0;
  std::size_t quorum_restored = 0;
  std::size_t kills = 0;
  std::size_t sickenings = 0;
  std::size_t repair_passes = 0;
  std::size_t max_passes_per_kill = 0;
  std::uint64_t repair_copies = 0;
  std::uint64_t repair_bytes = 0;
  std::uint64_t failed_puts = 0;
  std::uint64_t forced_fulls = 0;
  std::uint64_t short_circuits = 0;
  std::uint64_t breaker_transitions = 0;
  std::size_t under_replicated_final = 0;
  double wall_sec = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  lowdiff::bench::parse_args(argc, argv);
  set_log_level(LogLevel::kOff);  // fault windows log expected errors

  bench::header("bench_chaos",
                "self-healing replication: randomized kill/flap/slow "
                "campaigns with bit-exact recovery and budgeted quorum "
                "repair");

  const bool smoke = bench::options().smoke;
  const std::size_t seeds_per_policy = smoke ? 5 : 20;

  const std::vector<std::string> policies = {
      "2@local,peer",
      "3@local,peer,remote/q2",
  };

  tier::ChaosOptions base;  // 4 servers; stamp the same cluster into meta
  bench::set_cluster([&] {
    sim::ClusterSpec cluster;
    cluster.num_gpus = base.servers * cluster.gpus_per_server;
    return cluster;
  }());

  bench::Table table(
      "Chaos campaigns (" + std::to_string(seeds_per_policy) +
          " seeds per policy, " + std::to_string(base.iters) +
          " iterations each)",
      {"policy", "seeds", "bit_exact", "quorum_ok", "kills", "sick",
       "repair_passes", "max_per_kill", "copies", "repair_kb", "failed_puts",
       "forced_fulls", "short_circ", "transitions", "wall_ms"},
      "chaos.csv");

  std::size_t failures = 0;
  PolicyTotals all;
  for (const auto& policy : policies) {
    tier::ChaosOptions opts = base;
    opts.policy = policy;
    const tier::ChaosRunner runner(opts);

    PolicyTotals t;
    for (std::size_t i = 0; i < seeds_per_policy; ++i) {
      const std::uint64_t seed = 1 + i;
      Stopwatch sw;
      const auto r = runner.run(seed);
      t.wall_sec += sw.elapsed_sec();
      ++t.seeds;
      const bool pass = r.recovered && r.bit_exact && r.quorum_restored &&
                        r.under_replicated_final == 0;
      if (!pass) {
        ++failures;
        std::printf("FAIL policy=%s seed=%llu recovered=%d bit_exact=%d "
                    "quorum_restored=%d under_replicated=%zu\n",
                    policy.c_str(), static_cast<unsigned long long>(seed),
                    r.recovered, r.bit_exact, r.quorum_restored,
                    r.under_replicated_final);
      }
      if (r.bit_exact) ++t.bit_exact;
      if (r.quorum_restored) ++t.quorum_restored;
      t.kills += r.kills;
      t.sickenings += r.sickenings;
      t.repair_passes += r.repair_passes;
      t.max_passes_per_kill =
          std::max(t.max_passes_per_kill, r.max_passes_per_kill);
      t.repair_copies += r.repair_copies;
      t.repair_bytes += r.repair_bytes;
      t.failed_puts += r.failed_puts;
      t.forced_fulls += r.forced_fulls;
      t.short_circuits += r.short_circuits;
      t.breaker_transitions += r.breaker_transitions;
      t.under_replicated_final += r.under_replicated_final;
    }

    table.row(policy, t.seeds, t.bit_exact, t.quorum_restored, t.kills,
              t.sickenings, t.repair_passes, t.max_passes_per_kill,
              t.repair_copies,
              bench::Table::fmt(static_cast<double>(t.repair_bytes) / 1e3, 1),
              t.failed_puts, t.forced_fulls, t.short_circuits,
              t.breaker_transitions,
              bench::Table::fmt(t.wall_sec * 1e3, 1));

    all.seeds += t.seeds;
    all.bit_exact += t.bit_exact;
    all.quorum_restored += t.quorum_restored;
    all.kills += t.kills;
    all.sickenings += t.sickenings;
    all.repair_passes += t.repair_passes;
    all.max_passes_per_kill =
        std::max(all.max_passes_per_kill, t.max_passes_per_kill);
    all.repair_copies += t.repair_copies;
    all.repair_bytes += t.repair_bytes;
    all.short_circuits += t.short_circuits;
    all.breaker_transitions += t.breaker_transitions;
    all.under_replicated_final += t.under_replicated_final;
  }
  table.emit();

  // Campaign-level gauges for the --json artifact (EXPERIMENTS.md schema).
  auto& reg = obs::Registry::global();
  reg.gauge("chaos.seeds").set(static_cast<double>(all.seeds));
  reg.gauge("chaos.bit_exact").set(static_cast<double>(all.bit_exact));
  reg.gauge("chaos.quorum_restored")
      .set(static_cast<double>(all.quorum_restored));
  reg.gauge("chaos.kills").set(static_cast<double>(all.kills));
  reg.gauge("chaos.sickenings").set(static_cast<double>(all.sickenings));
  reg.gauge("chaos.repair_passes").set(static_cast<double>(all.repair_passes));
  reg.gauge("chaos.max_passes_per_kill")
      .set(static_cast<double>(all.max_passes_per_kill));
  reg.gauge("chaos.repair_copies")
      .set(static_cast<double>(all.repair_copies));
  reg.gauge("chaos.repair_bytes").set(static_cast<double>(all.repair_bytes));
  reg.gauge("chaos.short_circuits")
      .set(static_cast<double>(all.short_circuits));
  reg.gauge("chaos.breaker_transitions")
      .set(static_cast<double>(all.breaker_transitions));
  reg.gauge("chaos.under_replicated_final")
      .set(static_cast<double>(all.under_replicated_final));
  reg.gauge("chaos.failures").set(static_cast<double>(failures));

  lowdiff::bench::dump_registry_json();

  if (failures != 0) {
    std::printf("\n%zu of %zu campaigns FAILED\n", failures, all.seeds);
    return static_cast<int>(failures);
  }
  std::printf("\nall %zu campaigns passed (bit-exact, quorum restored)\n",
              all.seeds);
  return 0;
}
