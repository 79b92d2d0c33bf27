#pragma once

/// \file health.h
/// Per-target health state machines and circuit breakers for the tier
/// layer — the *memory* of the self-healing runtime (DESIGN.md §9).
///
/// The topology's alive()/fail_domain() switchboard models *declared*
/// failures (an orchestrator announced the server dead).  Real clusters
/// mostly see the other kind: a target that starts timing out or erroring
/// with nobody telling anyone.  TierHealthMonitor infers that state from
/// per-operation outcomes and runs each target through the classic breaker
/// lifecycle:
///
///     Healthy --(weighted failures >= 2)--> Suspect
///     Suspect --(weighted failures >= 4)--> Open       [breaker trips]
///     Open    --(cooldown elapses)--------> HalfOpen   [one probe admitted]
///     HalfOpen --(2 successes)------------> Healthy
///     HalfOpen --(any failure)------------> Open       [cooldown restarts]
///     Suspect --(2 successes)-------------> Healthy
///
/// The thresholds are constants (health.cpp); only the cooldown is an
/// option.  Failure *classification* matters: a timeout (DeadlineStorage)
/// or transient error is a soft signal worth 1, while a hard failure
/// (kUnavailable / kCorrupted / kExhausted) is worth 2 — one declared-dead
/// response trips a Suspect target immediately.
///
/// While a breaker is Open, admit() rejects without touching the device and
/// the caller surfaces ErrorCode::kCircuitOpen — deliberately
/// *non-retryable* (common/error.h), so retry loops exit on the first
/// attempt and the retry counter stays flat for the whole open window.
/// That flatness is the short-circuit proof the chaos tests assert.
///
/// The clock is injectable (seconds, monotone) so tests can step time
/// deterministically; the default reads the steady clock.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"

namespace lowdiff::tier {

enum class TargetHealth : std::uint8_t {
  kHealthy = 0,
  kSuspect = 1,   ///< accumulating failures, still admitted
  kOpen = 2,      ///< breaker tripped: all gated traffic short-circuits
  kHalfOpen = 3,  ///< cooldown elapsed: probe traffic admitted
};

inline const char* to_string(TargetHealth h) {
  switch (h) {
    case TargetHealth::kHealthy: return "healthy";
    case TargetHealth::kSuspect: return "suspect";
    case TargetHealth::kOpen: return "open";
    case TargetHealth::kHalfOpen: return "half-open";
  }
  return "unknown";
}

/// How an operation's failure counts toward tripping the breaker.
enum class FailureClass : std::uint8_t {
  kTimeout,    ///< deadline exceeded (outcome ambiguous) — soft, weight 1
  kTransient,  ///< transient I/O error — soft, weight 1
  kHard,       ///< unavailable / corrupted / exhausted — weight 2
};

/// Maps a failed operation's code to its breaker weight class.  kNotFound
/// and kCircuitOpen never reach here (not-found is an answer, not a
/// failure; a short-circuit never touched the device).
FailureClass classify_failure(ErrorCode code);

struct HealthOptions {
  double open_cooldown_sec = 0.5;  ///< Open dwell before a probe is admitted
  /// Monotone seconds source.  Tests inject a stepped fake; null means
  /// std::chrono::steady_clock.
  std::function<double()> clock;
};

/// Thread-safe registry of per-target breaker state.  Shared by the
/// Replicator (gating writes, filtering read candidates) and the
/// QuorumRepairEngine (choosing repair sources/destinations).
class TierHealthMonitor {
 public:
  explicit TierHealthMonitor(HealthOptions options = {});

  /// Gate for *mutating* traffic (write/sync).  Returns true if the op may
  /// proceed.  In Open state with cooldown elapsed, transitions to HalfOpen
  /// and admits exactly that caller as the probe; otherwise Open rejects
  /// and bumps the short-circuit counter.
  bool admit(const std::string& target);

  /// Non-mutating read-side check: anything but a still-cooling Open
  /// breaker is readable.  Reads through a HalfOpen target double as
  /// probes via record_success/record_failure.
  bool readable(const std::string& target) const;

  void record_success(const std::string& target);
  void record_failure(const std::string& target, ErrorCode code);

  TargetHealth state(const std::string& target) const;

  /// Targets currently in the given state (metrics/test introspection).
  std::vector<std::string> targets_in(TargetHealth state) const;

  /// Resets one target to Healthy (operator override after replacing
  /// hardware); unknown names are a no-op.
  void reset(const std::string& target);

  std::uint64_t short_circuits() const;
  std::uint64_t probes() const;

  const HealthOptions& options() const { return options_; }

 private:
  struct Entry {
    TargetHealth state = TargetHealth::kHealthy;
    std::uint32_t failure_score = 0;   ///< weighted, resets on close
    std::uint32_t success_streak = 0;  ///< consecutive, resets on failure
    double opened_at = 0.0;            ///< clock() at last trip
    obs::Gauge* state_gauge = nullptr;
  };

  double now() const { return clock_(); }
  Entry& entry_locked(const std::string& target);
  void transition_locked(const std::string& target, Entry& e, TargetHealth to);
  void on_failure_locked(const std::string& target, Entry& e,
                         std::uint32_t weight);
  void on_success_locked(const std::string& target, Entry& e);

  HealthOptions options_;
  std::function<double()> clock_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;

  obs::Counter& transitions_total_;
  obs::Counter& short_circuit_total_;
  obs::Counter& probes_total_;
  obs::Counter& failures_timeout_total_;
  obs::Counter& failures_transient_total_;
  obs::Counter& failures_hard_total_;
};

}  // namespace lowdiff::tier
