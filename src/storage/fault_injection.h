#pragma once

/// \file fault_injection.h
/// Decorator that injects storage faults into any backend, seeded for
/// determinism.  Models the failure classes the paper's experiments assume
/// (Exps. 3, 9, 10: Poisson failures against an MTBF) at the I/O level:
///
///   - transient write/read errors (retrying can succeed)
///   - torn writes: a prefix of the object lands, the call reports failure
///     (crash mid-write) — an uncommitted partial object remains
///   - silent bit flips: the write "succeeds" but one bit is corrupted,
///     detectable only by checksum at read/recovery time
///   - latency spikes: the call stalls (exercises queue back-pressure)

#include <cstdint>
#include <memory>
#include <mutex>

#include "common/rng.h"
#include "storage/backend.h"

namespace lowdiff {

/// Per-operation fault probabilities in [0, 1].  All default to zero, so a
/// default-constructed spec is a transparent pass-through.
struct FaultSpec {
  double write_error_rate = 0.0;   ///< write fails cleanly (nothing lands)
  double torn_write_rate = 0.0;    ///< write fails, random prefix lands
  double bit_flip_rate = 0.0;      ///< write "succeeds" with one bit flipped
  double read_error_rate = 0.0;    ///< read fails with kTransient
  double latency_spike_rate = 0.0; ///< op sleeps latency_spike_sec first
  double latency_spike_sec = 0.0;
  std::uint64_t seed = 0x10add1ff;
};

struct FaultStats {
  std::uint64_t write_errors = 0;
  std::uint64_t torn_writes = 0;
  std::uint64_t bit_flips = 0;
  std::uint64_t read_errors = 0;
  std::uint64_t latency_spikes = 0;

  std::uint64_t total() const {
    return write_errors + torn_writes + bit_flips + read_errors;
  }
};

class FaultInjectingStorage final : public StorageBackend {
 public:
  FaultInjectingStorage(std::shared_ptr<StorageBackend> inner, FaultSpec spec);

  Status write(const std::string& key, std::span<const std::byte> bytes) override;
  Result<std::vector<std::byte>> read(const std::string& key) const override;
  bool exists(const std::string& key) const override;
  void remove(const std::string& key) override;
  std::vector<std::string> list() const override;
  StorageStats stats() const override;
  Status sync() override { return inner_->sync(); }

  FaultStats fault_stats() const;

  /// Disables / re-enables injection without reconstructing (recovery
  /// phases of a test can read back cleanly).
  void set_armed(bool armed);

  /// Replaces the fault probabilities mid-run (the chaos switchboard flaps
  /// or slows a live target this way).  The RNG stream is left untouched so
  /// prior draws stay reproducible; the seed field of `spec` is ignored.
  void set_spec(const FaultSpec& spec);
  FaultSpec spec() const;

 private:
  bool roll(double rate) const;  // caller holds mutex_
  void maybe_spike() const;      // caller must NOT hold mutex_ during sleep

  std::shared_ptr<StorageBackend> inner_;
  FaultSpec spec_;
  mutable std::mutex mutex_;
  mutable Xoshiro256 rng_;
  mutable FaultStats fault_stats_;
  bool armed_ = true;
};

}  // namespace lowdiff
