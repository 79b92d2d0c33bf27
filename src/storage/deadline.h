#pragma once

/// \file deadline.h
/// Deadline-aware storage decorator: the failure *detector* of the
/// self-healing runtime (DESIGN.md §9).
///
/// A dead target fails fast (kUnavailable from the aliveness gate), but a
/// *sick* target — saturated link, GC pause, degrading device — just gets
/// slower, and a caller that waits indefinitely converts one slow replica
/// into a training stall.  DeadlineStorage bounds every delegated operation
/// with a per-class deadline: an op that takes longer than its deadline is
/// reported as ErrorCode::kTimeout even when the inner backend eventually
/// returned ok.
///
/// Semantics of a write timeout are deliberately ambiguous-outcome: the
/// bytes may or may not have landed (exactly like a timed-out RPC).  That
/// is safe under the commit protocol — an uncommitted data object is
/// invisible, and markers are CRC-validated — so callers treat kTimeout as
/// retryable while health monitors treat it as a *soft* failure signal
/// (timeout vs. transient vs. hard classification in tier/health.h).
///
/// The wrapper is synchronous (it cannot abort an in-flight call — the
/// backends here are in-process), so it detects lateness rather than
/// enforcing cancellation; the circuit breaker above it is what stops the
/// next call from paying the same price.  The deadlines are fixed at
/// construction, so an op reads them without a lock.

#include <atomic>
#include <cstdint>
#include <memory>

#include "storage/backend.h"

namespace lowdiff {

/// Per-operation-class deadlines in seconds.  0 disables the class.
struct DeadlineSpec {
  double write_deadline_sec = 0.0;
  double read_deadline_sec = 0.0;
  double sync_deadline_sec = 0.0;

  bool enabled() const {
    return write_deadline_sec > 0.0 || read_deadline_sec > 0.0 ||
           sync_deadline_sec > 0.0;
  }
};

class DeadlineStorage final : public StorageBackend {
 public:
  DeadlineStorage(std::shared_ptr<StorageBackend> inner, DeadlineSpec spec);

  Status write(const std::string& key, std::span<const std::byte> bytes) override;
  Result<std::vector<std::byte>> read(const std::string& key) const override;
  bool exists(const std::string& key) const override;
  void remove(const std::string& key) override;
  std::vector<std::string> list() const override;
  StorageStats stats() const override;
  Status sync() override;

  /// Operations converted to kTimeout so far (reads + writes + syncs).
  std::uint64_t timeouts() const {
    return timeouts_.load(std::memory_order_relaxed);
  }

  StorageBackend& inner() { return *inner_; }

 private:
  Status timed_out(const char* op, const std::string& key, double elapsed,
                   double deadline) const;

  std::shared_ptr<StorageBackend> inner_;
  const DeadlineSpec spec_;
  mutable std::atomic<std::uint64_t> timeouts_{0};
};

}  // namespace lowdiff
