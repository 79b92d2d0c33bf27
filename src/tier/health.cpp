#include "tier/health.h"

#include <chrono>

#include "common/logging.h"

namespace lowdiff::tier {

namespace {

// Breaker thresholds (the lifecycle in health.h).
constexpr std::uint32_t kSuspectAfter = 2;  ///< weighted failures: -> Suspect
constexpr std::uint32_t kOpenAfter = 4;     ///< weighted failures: -> Open
constexpr std::uint32_t kCloseAfter = 2;    ///< successes in a row: -> Healthy
constexpr std::uint32_t kHardFailureWeight = 2;

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

FailureClass classify_failure(ErrorCode code) {
  switch (code) {
    case ErrorCode::kTimeout:
      return FailureClass::kTimeout;
    case ErrorCode::kTransient:
      return FailureClass::kTransient;
    default:
      // kUnavailable, kCorrupted, kExhausted, kInvalidArgument, kInternal:
      // the device (or our model of it) is wrong in a way waiting won't fix.
      return FailureClass::kHard;
  }
}

TierHealthMonitor::TierHealthMonitor(HealthOptions options)
    : options_(options),
      clock_(options.clock ? options.clock : steady_seconds),
      transitions_total_(
          obs::Registry::global().counter("tier.health.transitions_total")),
      short_circuit_total_(
          obs::Registry::global().counter("tier.health.short_circuit_total")),
      probes_total_(
          obs::Registry::global().counter("tier.health.probes_total")),
      failures_timeout_total_(obs::Registry::global().counter(
          "tier.health.failures_timeout_total")),
      failures_transient_total_(obs::Registry::global().counter(
          "tier.health.failures_transient_total")),
      failures_hard_total_(obs::Registry::global().counter(
          "tier.health.failures_hard_total")) {}

TierHealthMonitor::Entry& TierHealthMonitor::entry_locked(
    const std::string& target) {
  auto [it, inserted] = entries_.try_emplace(target);
  if (inserted) {
    it->second.state_gauge =
        &obs::Registry::global().gauge("tier.health." + target + ".state");
    it->second.state_gauge->set(0);
  }
  return it->second;
}

void TierHealthMonitor::transition_locked(const std::string& target, Entry& e,
                                          TargetHealth to) {
  if (e.state == to) return;
  LOWDIFF_LOG_INFO("tier target '", target, "' ", to_string(e.state), " -> ",
                   to_string(to));
  e.state = to;
  e.state_gauge->set(static_cast<std::int64_t>(to));
  transitions_total_.add(1);
  if (to == TargetHealth::kOpen) {
    e.opened_at = now();
    e.success_streak = 0;
  } else if (to == TargetHealth::kHealthy) {
    e.failure_score = 0;
    e.success_streak = 0;
  }
}

void TierHealthMonitor::on_failure_locked(const std::string& target, Entry& e,
                                          std::uint32_t weight) {
  e.success_streak = 0;
  switch (e.state) {
    case TargetHealth::kHealthy:
    case TargetHealth::kSuspect:
      e.failure_score += weight;
      if (e.failure_score >= kOpenAfter) {
        transition_locked(target, e, TargetHealth::kOpen);
      } else if (e.failure_score >= kSuspectAfter) {
        transition_locked(target, e, TargetHealth::kSuspect);
      }
      break;
    case TargetHealth::kHalfOpen:
      // Failed probe: straight back to Open, cooldown restarts.
      transition_locked(target, e, TargetHealth::kOpen);
      break;
    case TargetHealth::kOpen:
      // A straggler that was admitted before the trip; nothing new.
      break;
  }
}

void TierHealthMonitor::on_success_locked(const std::string& target,
                                          Entry& e) {
  switch (e.state) {
    case TargetHealth::kHealthy:
      e.failure_score = 0;
      break;
    case TargetHealth::kSuspect:
    case TargetHealth::kHalfOpen:
      if (++e.success_streak >= kCloseAfter) {
        transition_locked(target, e, TargetHealth::kHealthy);
      }
      break;
    case TargetHealth::kOpen:
      // A read raced the trip, or a cooled-down read probed successfully
      // without going through admit(): count it as a probe success.
      if (now() - e.opened_at >= options_.open_cooldown_sec) {
        transition_locked(target, e, TargetHealth::kHalfOpen);
        ++e.success_streak;
        if (e.success_streak >= kCloseAfter) {
          transition_locked(target, e, TargetHealth::kHealthy);
        }
      }
      break;
  }
}

bool TierHealthMonitor::admit(const std::string& target) {
  std::lock_guard lock(mutex_);
  Entry& e = entry_locked(target);
  if (e.state != TargetHealth::kOpen) return true;
  if (now() - e.opened_at >= options_.open_cooldown_sec) {
    transition_locked(target, e, TargetHealth::kHalfOpen);
    probes_total_.add(1);
    return true;
  }
  short_circuit_total_.add(1);
  return false;
}

bool TierHealthMonitor::readable(const std::string& target) const {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(target);
  if (it == entries_.end()) return true;
  const Entry& e = it->second;
  if (e.state != TargetHealth::kOpen) return true;
  return now() - e.opened_at >= options_.open_cooldown_sec;
}

void TierHealthMonitor::record_success(const std::string& target) {
  std::lock_guard lock(mutex_);
  on_success_locked(target, entry_locked(target));
}

void TierHealthMonitor::record_failure(const std::string& target,
                                       ErrorCode code) {
  const FailureClass cls = classify_failure(code);
  std::uint32_t weight = 1;
  switch (cls) {
    case FailureClass::kTimeout:
      failures_timeout_total_.add(1);
      break;
    case FailureClass::kTransient:
      failures_transient_total_.add(1);
      break;
    case FailureClass::kHard:
      failures_hard_total_.add(1);
      weight = kHardFailureWeight;
      break;
  }
  std::lock_guard lock(mutex_);
  on_failure_locked(target, entry_locked(target), weight);
}

TargetHealth TierHealthMonitor::state(const std::string& target) const {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(target);
  return it == entries_.end() ? TargetHealth::kHealthy : it->second.state;
}

std::vector<std::string> TierHealthMonitor::targets_in(
    TargetHealth state) const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [name, e] : entries_) {
    if (e.state == state) out.push_back(name);
  }
  return out;
}

void TierHealthMonitor::reset(const std::string& target) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(target);
  if (it == entries_.end()) return;
  transition_locked(target, it->second, TargetHealth::kHealthy);
}

std::uint64_t TierHealthMonitor::short_circuits() const {
  return short_circuit_total_.value();
}

std::uint64_t TierHealthMonitor::probes() const {
  return probes_total_.value();
}

}  // namespace lowdiff::tier
