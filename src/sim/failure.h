#pragma once

/// \file failure.h
/// Failure injection for the long-horizon experiments (Exp. 3, 9, 10, 11).
/// Failures arrive as a Poisson process with the configured MTBF, matching
/// the paper's methodology ("failures were simulated ... adhering to a
/// fixed MTBF metric", §6.2 Exp. 3).  Each event can carry the index of
/// the server it strikes, which maps onto the failure domains of the
/// tiered placement subsystem (tier/topology.h) for Exp. 11.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace lowdiff::sim {

enum class FailureType {
  kSoftware,  ///< training process dies; host memory survives (§5.3)
  kHardware,  ///< machine is replaced; all volatile state is lost
};

struct FailureEvent {
  double time = 0.0;  ///< seconds since the previous failure (or start)
  FailureType type = FailureType::kSoftware;
  /// Server struck by the failure (uniform over the cluster when sampled
  /// via next(num_servers); 0 for the legacy single-server next()).
  std::size_t server = 0;
};

class FailureModel {
 public:
  /// `software_fraction`: probability a failure is a software failure.
  FailureModel(double mtbf_sec, std::uint64_t seed, double software_fraction = 0.5)
      : mtbf_sec_(mtbf_sec), software_fraction_(software_fraction),
        rng_(SplitMix64(seed ^ 0xFA11u).next()) {}

  double mtbf() const { return mtbf_sec_; }

  /// Samples the next failure (time to failure + type).
  FailureEvent next() {
    FailureEvent ev;
    ev.time = rng_.exponential(mtbf_sec_);
    ev.type = rng_.uniform_double() < software_fraction_ ? FailureType::kSoftware
                                                         : FailureType::kHardware;
    return ev;
  }

  /// Samples the next failure and attributes it to a server drawn
  /// uniformly from `num_servers` (each server is equally likely to be
  /// the one that dies — the paper's clusters are homogeneous).
  FailureEvent next(std::size_t num_servers) {
    LOWDIFF_ENSURE(num_servers > 0, "cluster has no servers");
    FailureEvent ev = next();
    ev.server = static_cast<std::size_t>(
        rng_.uniform_below(static_cast<std::uint64_t>(num_servers)));
    return ev;
  }

 private:
  double mtbf_sec_;
  double software_fraction_;
  Xoshiro256 rng_;
};

/// Samples `count` *distinct* servers to kill simultaneously — the
/// correlated-loss scenario of Exp. 11 ("kill f servers, measure recovery
/// time vs k and tier mix").  Deterministic in `seed`; returns the victims
/// in ascending order.  `count` must not exceed `num_servers`.
inline std::vector<std::size_t> sample_server_losses(std::size_t num_servers,
                                                     std::size_t count,
                                                     std::uint64_t seed) {
  LOWDIFF_ENSURE(count <= num_servers, "cannot kill more servers than exist");
  Xoshiro256 rng(SplitMix64(seed ^ 0x5E12Fu).next());
  // Floyd's distinct-sampling algorithm: O(count) time and memory, one
  // uniform draw per victim — replaces the old partial Fisher–Yates, whose
  // O(num_servers) identity array dominated fleet-scale bursts.  For
  // count == 1 the two algorithms consume the same single draw and return
  // the same victim, so historical single-loss outputs are unchanged;
  // multi-loss samples stay uniform over distinct subsets but differ from
  // the pre-Floyd draws for the same seed (goldens bumped with the note in
  // DESIGN.md §11).
  std::vector<std::size_t> victims;
  victims.reserve(count);
  for (std::size_t j = num_servers - count; j < num_servers; ++j) {
    const std::size_t t = static_cast<std::size_t>(
        rng.uniform_below(static_cast<std::uint64_t>(j) + 1));
    if (std::find(victims.begin(), victims.end(), t) != victims.end()) {
      victims.push_back(j);
    } else {
      victims.push_back(t);
    }
  }
  std::sort(victims.begin(), victims.end());
  return victims;
}

/// Analytic model of *repair racing failure* — the window analysis behind
/// the quorum repair engine's budget (DESIGN.md §9.2).  While a record is
/// under-replicated (between a domain loss and its repair completing), a
/// second loss can strike; replication only protects against losses that
/// do not overlap a repair window.  With Poisson failures (rate 1/MTBF per
/// server) and mean repair time R, the number of concurrently-unrepaired
/// failures in an n-server cluster behaves like an M/G/inf queue with
/// occupancy lambda*R = n*R/MTBF, so quorum (k replicas, q required) is
/// lost when at least k-q+1 domains are simultaneously down — a Poisson
/// tail in that occupancy.
class RepairModel {
 public:
  RepairModel(double mtbf_sec, double mean_repair_sec)
      : mtbf_sec_(mtbf_sec), mean_repair_sec_(mean_repair_sec) {
    LOWDIFF_ENSURE(mtbf_sec > 0, "mtbf must be positive");
    LOWDIFF_ENSURE(mean_repair_sec >= 0, "repair time cannot be negative");
  }

  double mtbf() const { return mtbf_sec_; }
  double mean_repair() const { return mean_repair_sec_; }

  /// P(another failure of the same server arrives within one repair
  /// window) = 1 - e^(-R/MTBF).
  double overlap_probability() const {
    return 1.0 - std::exp(-mean_repair_sec_ / mtbf_sec_);
  }

  /// Expected number of servers simultaneously inside a repair window
  /// (M/G/inf occupancy): n * R / MTBF.
  double expected_unrepaired(std::size_t num_servers) const {
    return static_cast<double>(num_servers) * mean_repair_sec_ / mtbf_sec_;
  }

  /// P(>= `overlapping` failures are concurrently unrepaired) — the
  /// Poisson tail of the occupancy above.  With k replicas and quorum q,
  /// call with overlapping = k - q + 1 for the quorum-loss probability at
  /// any instant.
  double concurrent_loss_probability(std::size_t num_servers,
                                     std::size_t overlapping) const {
    const double occupancy = expected_unrepaired(num_servers);
    // P(N >= m) = 1 - sum_{i<m} e^-o o^i / i!
    double term = std::exp(-occupancy);  // i = 0
    double cdf = 0.0;
    for (std::size_t i = 0; i < overlapping; ++i) {
      cdf += term;
      term *= occupancy / static_cast<double>(i + 1);
    }
    return std::max(0.0, 1.0 - cdf);
  }

  /// Quorum-loss probability for a k-replica / q-quorum placement: at
  /// least k - q + 1 overlapping unrepaired losses.
  double quorum_loss_probability(std::size_t num_servers, std::size_t replicas,
                                 std::size_t quorum) const {
    LOWDIFF_ENSURE(quorum >= 1 && quorum <= replicas, "bad quorum");
    return concurrent_loss_probability(num_servers, replicas - quorum + 1);
  }

  /// Samples one repair duration (exponential with the configured mean) —
  /// feeds chaos schedules that want randomized restore times.
  double sample_repair_sec(Xoshiro256& rng) const {
    return mean_repair_sec_ <= 0 ? 0.0 : rng.exponential(mean_repair_sec_);
  }

 private:
  double mtbf_sec_;
  double mean_repair_sec_;
};

}  // namespace lowdiff::sim
