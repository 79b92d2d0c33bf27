#pragma once

/// \file chaos.h
/// Randomized failure/recovery campaign harness for the self-healing
/// replication runtime (DESIGN.md §9.4).  Test support code, not part of
/// the program: tests/test_chaos.cpp, bench/bench_chaos.cpp and
/// bench/bench_fault_tolerance.cpp run it.
///
/// One run builds the full stack (topology → health monitor → replicator →
/// checkpoint store → repair engine), trains a small model with the
/// gradient-reuse checkpoint loop, and drives a seed-deterministic schedule
/// of mid-run events against it:
///
///   - kill:    a server's failure domain goes down (volatile tiers wiped);
///              the repair engine then runs budgeted passes until quorum is
///              restored.  At most one domain is dead at a time — with the
///              replica-distinct-domain invariant, a single loss can never
///              erase every copy of a committed record, and repair re-earns
///              the quorum before the next loss may strike.
///   - restore: the dead server returns; its lanes' breakers are reset
///              (the orchestrator knows the machine was replaced).
///   - flap:    a live target starts failing every write (injected
///              transient errors) until the matching clear event.
///   - slow:    a live target stalls every op past the configured deadline,
///              exercising the timeout→breaker path.
///
/// The checkpoint loop follows the gap-free chain discipline: after any
/// failed put the runner writes only *full* checkpoints until one commits.
/// Recovery already stops at a hole — core/recovery.cpp ends the chain at
/// the first unreadable record or never-committed iteration — so the
/// discipline does not guard correctness; it keeps the runner from writing
/// diffs after a hole, where no chain can reach them.
///
/// After the schedule drains, the run recovers through the tier-aware
/// engine from whatever survives and checks the recovered state is
/// *bit-exact* against the training-time snapshot of the iteration the
/// recovery reports — the paper's recovery-correctness bar under fire.

#include <cstdint>
#include <string>
#include <vector>

#include "tier/replicator.h"

namespace lowdiff::tier {

struct ChaosEvent {
  enum class Kind : std::uint8_t {
    kKill,     ///< fail_domain(server)
    kRestore,  ///< restore_domain(server) + breaker reset
    kFlap,     ///< target fails all writes until kClear
    kSlow,     ///< target stalls past the deadline until kClear
    kClear,    ///< flap/slow ends, breaker reset
  };
  Kind kind = Kind::kKill;
  std::uint64_t iteration = 0;  ///< applied before this iteration trains
  std::size_t server = 0;       ///< kKill/kRestore
  std::string target;           ///< kFlap/kSlow/kClear
};

struct ChaosOptions {
  std::size_t servers = 4;
  std::string policy = "3@local,peer,remote/q2";
  std::size_t param_count = 192;
  double compress_ratio = 0.25;
  std::uint64_t iters = 28;
  std::uint64_t full_interval = 7;  ///< scheduled fulls (plus forced ones)
  /// Repair passes allowed per domain loss before quorum restoration is
  /// declared failed — the "budgeted window" of the acceptance criterion.
  std::size_t repair_passes_per_event = 12;
  /// Small on purpose: a full checkpoint costs several passes, proving the
  /// budget cursor makes monotone progress.
  std::uint64_t repair_budget_bytes = 64ull << 10;
  double deadline_sec = 3e-3;    ///< per-op deadline on every lane
  double spike_sec = 1e-2;       ///< injected stall length (> deadline)
  double cooldown_sec = 2e-2;    ///< breaker open dwell
  double time_scale = 1e-7;      ///< link-throttle compression (tests)
  /// Event rates per iteration (schedule is a pure function of the seed).
  double kill_rate = 0.15;
  double sicken_rate = 0.20;  ///< flap or slow (coin flip between them)
};

struct ChaosReport {
  std::vector<ChaosEvent> events;   ///< applied, in order
  std::size_t kills = 0;
  std::size_t sickenings = 0;       ///< flap + slow events
  std::size_t repair_passes = 0;    ///< across all kills
  std::size_t max_passes_per_kill = 0;
  std::uint64_t repair_copies = 0;
  std::uint64_t repair_bytes = 0;
  bool quorum_restored = true;      ///< every kill repaired within budget
  std::size_t under_replicated_final = 0;
  std::uint64_t failed_puts = 0;    ///< checkpoint writes that errored
  std::uint64_t forced_fulls = 0;   ///< fulls written to re-anchor the chain
  std::uint64_t short_circuits = 0; ///< breaker rejections during the run
  std::uint64_t breaker_transitions = 0;
  bool recovered = false;           ///< recovery produced a state at all
  std::uint64_t recovered_iteration = 0;
  bool bit_exact = false;           ///< recovered == snapshot[recovered_iter]
};

class ChaosRunner {
 public:
  explicit ChaosRunner(ChaosOptions options = {});

  /// One full campaign; everything (topology, schedule, data) derives from
  /// `seed`, so a failing seed replays exactly.
  ChaosReport run(std::uint64_t seed) const;

  const ChaosOptions& options() const { return options_; }

 private:
  ChaosOptions options_;
};

}  // namespace lowdiff::tier
