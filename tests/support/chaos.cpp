#include "support/chaos.h"

#include <limits>
#include <optional>

#include "compress/topk.h"
#include "core/checkpoint_store.h"
#include "obs/metrics.h"
#include "optim/adam.h"
#include "sim/cluster.h"
#include "tensor/ops.h"
#include "tier/repair.h"
#include "tier/tier_recovery.h"

namespace lowdiff::tier {

ChaosRunner::ChaosRunner(ChaosOptions options) : options_(std::move(options)) {
  LOWDIFF_ENSURE(options_.servers >= 2, "chaos needs at least 2 servers");
  LOWDIFF_ENSURE(options_.iters > 0, "chaos needs iterations");
  LOWDIFF_ENSURE(options_.full_interval > 0, "full_interval must be positive");
}

ChaosReport ChaosRunner::run(std::uint64_t seed) const {
  const ChaosOptions& o = options_;
  ChaosReport report;

  auto& reg = obs::Registry::global();
  const std::uint64_t sc0 =
      reg.counter("tier.health.short_circuit_total").value();
  const std::uint64_t tr0 =
      reg.counter("tier.health.transitions_total").value();

  // --- build the full stack, everything seeded ----------------------------
  sim::ClusterSpec cluster;
  cluster.num_gpus = o.servers * cluster.gpus_per_server;
  TierSimOptions topts;
  topts.time_scale = o.time_scale;
  topts.faults.seed = SplitMix64(seed ^ 0xc4a05u).next();
  auto topo = TierTopology::for_cluster(cluster, topts);

  HealthOptions hopts;
  hopts.open_cooldown_sec = o.cooldown_sec;
  auto health = std::make_shared<TierHealthMonitor>(hopts);

  // Fast retries: the campaign injects certain-failure windows, so waiting
  // out the default backoff would just slow every seed down.
  RetryPolicy quick;
  quick.max_attempts = 3;
  quick.base_delay_sec = 1e-4;
  quick.max_delay_sec = 1e-3;
  quick.seed = SplitMix64(seed ^ 0x7e77u).next();

  ReplicatorOptions ropts;
  ropts.origin_server = 0;
  ropts.health = health;
  ropts.replica_retry = quick;
  ropts.deadline.write_deadline_sec = o.deadline_sec;
  ropts.deadline.read_deadline_sec = o.deadline_sec;
  ropts.deadline.sync_deadline_sec = o.deadline_sec;
  auto replicas = std::make_shared<Replicator>(
      topo, PlacementPolicy::parse(o.policy), ropts);

  QuorumRepairEngine::Options qopts;
  qopts.budget_bytes_per_pass = o.repair_budget_bytes;
  QuorumRepairEngine repair(topo, *replicas, qopts);

  CheckpointStore store(replicas, quick);

  ModelSpec spec;
  spec.name = "chaos";
  spec.layers = {{"w", {o.param_count}}};
  Adam adam;
  TopKCompressor comp(o.compress_ratio);

  ModelState state(spec);
  state.init_random(seed);
  std::vector<ModelState> snapshots;
  snapshots.reserve(o.iters);

  Xoshiro256 grad_rng(SplitMix64(seed * 31 + 1).next());
  Xoshiro256 sched_rng(SplitMix64(seed ^ 0x5c4edu).next());
  Tensor grad(spec.param_count());
  Tensor dense(spec.param_count());

  // --- schedule state ------------------------------------------------------
  // At most one concurrent loss: the dead server, or kNoServer.
  constexpr std::size_t kNoServer = std::numeric_limits<std::size_t>::max();
  std::size_t dead_server = kNoServer;
  std::uint64_t restore_at = 0;
  struct ActiveSickness {
    std::string target;
    std::uint64_t clear_at = 0;
  };
  std::optional<ActiveSickness> sick;  // at most one concurrent flap/slow
  bool need_full = false;  // gap-free chain discipline (see header)

  auto note = [&](ChaosEvent::Kind kind, std::uint64_t iter, std::size_t server,
                  std::string target) {
    ChaosEvent ev;
    ev.kind = kind;
    ev.iteration = iter;
    ev.server = server;
    ev.target = std::move(target);
    report.events.push_back(std::move(ev));
  };
  auto clear_sickness = [&](std::uint64_t iter) {
    if (!sick) return;
    if (TierTarget* t = topo->find(sick->target); t != nullptr && t->faults) {
      t->faults->set_spec(FaultSpec{});
    }
    health->reset(sick->target);
    note(ChaosEvent::Kind::kClear, iter, 0, sick->target);
    sick.reset();
  };

  // --- campaign loop -------------------------------------------------------
  for (std::uint64_t t = 0; t < o.iters; ++t) {
    // Pending clears first, so a sickness/death window always ends.
    if (sick && sick->clear_at <= t) clear_sickness(t);
    if (dead_server != kNoServer && restore_at <= t) {
      topo->restore_domain(dead_server);
      for (std::size_t i = 0; i < topo->size(); ++i) {
        auto& tgt = topo->target(i);
        if (tgt.failure_domain == dead_server) health->reset(tgt.name);
      }
      note(ChaosEvent::Kind::kRestore, t, dead_server, "");
      dead_server = kNoServer;
    }

    // New events (never before iteration 1: the first full must anchor).
    if (t > 0 && dead_server == kNoServer &&
        sched_rng.uniform_double() < o.kill_rate) {
      const auto victim =
          static_cast<std::size_t>(sched_rng.uniform_below(o.servers));
      // Flaps and slowdowns since the last kill may have left best-effort
      // durability debt: settle it *before* the loss, so no record faces a
      // domain kill holding a single copy.  (Quorum >= 2 on distinct
      // domains then guarantees a survivor for every record.)
      clear_sickness(t);
      repair.repair_until_quorum(o.repair_passes_per_event);
      topo->fail_domain(victim);
      dead_server = victim;
      restore_at = t + 2 + sched_rng.uniform_below(4);
      ++report.kills;
      note(ChaosEvent::Kind::kKill, t, victim, "");

      // The budgeted repair window: quorum must come back within
      // repair_passes_per_event budgeted passes or the campaign fails.
      std::size_t passes = 0;
      bool restored = false;
      while (passes < o.repair_passes_per_event) {
        const auto pass = repair.run_once();
        ++passes;
        report.repair_copies += pass.copies;
        report.repair_bytes += pass.bytes;
        if (pass.remaining == 0) {
          restored = true;
          break;
        }
        if (pass.copies == 0 && !pass.budget_exhausted) break;  // stuck
      }
      report.repair_passes += passes;
      report.max_passes_per_kill = std::max(report.max_passes_per_kill, passes);
      if (!restored) report.quorum_restored = false;
    }
    if (t > 0 && !sick && sched_rng.uniform_double() < o.sicken_rate) {
      const auto pick =
          static_cast<std::size_t>(sched_rng.uniform_below(topo->size()));
      auto& tgt = topo->target(pick);
      const bool flap = sched_rng.uniform_double() < 0.5;  // draw regardless,
      const auto hold = 1 + sched_rng.uniform_below(3);    // schedule stability
      if (topo->alive(tgt) && tgt.faults != nullptr) {
        FaultSpec fs;
        if (flap) {
          fs.write_error_rate = 1.0;
        } else {
          fs.latency_spike_rate = 1.0;
          fs.latency_spike_sec = o.spike_sec;
        }
        tgt.faults->set_spec(fs);
        sick = ActiveSickness{tgt.name, t + hold};
        ++report.sickenings;
        note(flap ? ChaosEvent::Kind::kFlap : ChaosEvent::Kind::kSlow, t, 0,
             tgt.name);
      }
    }

    // One training step (the gradient-reuse loop the recovery tests use).
    ops::fill_normal(grad.span(), grad_rng, 0.5f);
    const auto payload = comp.compress(grad.cspan(), t);
    comp.decompress(payload, dense.span());
    adam.step(state, dense.cspan());
    snapshots.push_back(state);

    // Checkpoint under the gap-free discipline: after any failed put, only
    // a committed *full* may restart the chain — a diff written past a hole
    // would replay into the wrong state at recovery.
    const bool scheduled_full = (t % o.full_interval == 0);
    const bool forced_full = need_full && !scheduled_full;
    Status st = (scheduled_full || need_full) ? store.put_full(t, state)
                                              : store.put_diff(payload);
    if (st.ok()) {
      if (forced_full) ++report.forced_fulls;
      need_full = false;
    } else {
      ++report.failed_puts;
      need_full = true;
    }
  }

  // Drain sickness before judging: breakers opened by a flap must not hide
  // healthy replicas from recovery's read view.
  clear_sickness(o.iters);
  replicas->flush();

  const auto final_pass = repair.run_once();
  report.under_replicated_final = final_pass.remaining;

  // --- recover from what survives and check bit-exactness ------------------
  TierAwareRecoveryEngine engine(spec, std::make_unique<Adam>(),
                                 std::make_unique<TopKCompressor>(
                                     o.compress_ratio));
  try {
    RecoveryReport rr;
    const ModelState recovered = engine.recover(replicas, &rr);
    report.recovered = true;
    report.recovered_iteration = rr.final_iteration;
    report.bit_exact = rr.final_iteration < snapshots.size() &&
                       recovered.bit_equal(snapshots[rr.final_iteration]);
  } catch (const std::exception&) {
    report.recovered = false;
  }

  report.short_circuits =
      reg.counter("tier.health.short_circuit_total").value() - sc0;
  report.breaker_transitions =
      reg.counter("tier.health.transitions_total").value() - tr0;
  return report;
}

}  // namespace lowdiff::tier
