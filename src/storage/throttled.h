#pragma once

/// \file throttled.h
/// Decorator that imposes a Throttler's bandwidth/latency on another
/// backend.  MemStorage + Throttler(ssd) ≈ a fast box writing to an SSD;
/// MemStorage + Throttler(remote_storage) ≈ remote checkpoint storage.

#include <memory>

#include "storage/backend.h"
#include "storage/bandwidth.h"

namespace lowdiff {

class ThrottledStorage final : public StorageBackend {
 public:
  /// `link_name` labels the throttler's metrics (`link.<name>.*`).
  ThrottledStorage(std::shared_ptr<StorageBackend> inner, LinkSpec link,
                   double time_scale = 1.0, std::string link_name = "storage");

  Status write(const std::string& key, std::span<const std::byte> bytes) override;
  Result<std::vector<std::byte>> read(const std::string& key) const override;
  bool exists(const std::string& key) const override;
  void remove(const std::string& key) override;
  std::vector<std::string> list() const override;
  StorageStats stats() const override;
  /// Charges the link's sync_latency_sec (FIFO with transfers) before
  /// forwarding — the per-barrier cost group commit amortizes.
  Status sync() override;

  /// Modeled seconds the storage link has been busy (steady-state
  /// checkpointing overhead measurements read this).
  double busy_time() const { return throttler_->busy_time(); }

 private:
  std::shared_ptr<StorageBackend> inner_;
  /// unique_ptr so const read() can acquire; Throttler is internally locked.
  std::unique_ptr<Throttler> throttler_;
};

}  // namespace lowdiff
