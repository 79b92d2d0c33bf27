#include "storage/deadline.h"

#include "common/error.h"
#include "common/stopwatch.h"

namespace lowdiff {

DeadlineStorage::DeadlineStorage(std::shared_ptr<StorageBackend> inner,
                                 DeadlineSpec spec)
    : inner_(std::move(inner)), spec_(spec) {
  LOWDIFF_ENSURE(inner_ != nullptr, "null inner backend");
}

Status DeadlineStorage::timed_out(const char* op, const std::string& key,
                                  double elapsed, double deadline) const {
  timeouts_.fetch_add(1, std::memory_order_relaxed);
  char detail[96];
  std::snprintf(detail, sizeof(detail), " took %.1fms (deadline %.1fms)",
                elapsed * 1e3, deadline * 1e3);
  return Status(ErrorCode::kTimeout, std::string(op) + " of '" + key + "'" +
                                         detail);
}

Status DeadlineStorage::write(const std::string& key,
                              std::span<const std::byte> bytes) {
  const double deadline = spec_.write_deadline_sec;
  if (deadline <= 0.0) return inner_->write(key, bytes);
  Stopwatch sw;
  const Status st = inner_->write(key, bytes);
  const double elapsed = sw.elapsed_sec();
  if (elapsed > deadline) return timed_out("write", key, elapsed, deadline);
  return st;
}

Result<std::vector<std::byte>> DeadlineStorage::read(
    const std::string& key) const {
  const double deadline = spec_.read_deadline_sec;
  if (deadline <= 0.0) return inner_->read(key);
  Stopwatch sw;
  auto result = inner_->read(key);
  const double elapsed = sw.elapsed_sec();
  if (elapsed > deadline) {
    return Result<std::vector<std::byte>>(
        timed_out("read", key, elapsed, deadline));
  }
  return result;
}

bool DeadlineStorage::exists(const std::string& key) const {
  return inner_->exists(key);
}

void DeadlineStorage::remove(const std::string& key) { inner_->remove(key); }

std::vector<std::string> DeadlineStorage::list() const {
  return inner_->list();
}

StorageStats DeadlineStorage::stats() const { return inner_->stats(); }

Status DeadlineStorage::sync() {
  const double deadline = spec_.sync_deadline_sec;
  if (deadline <= 0.0) return inner_->sync();
  Stopwatch sw;
  const Status st = inner_->sync();
  const double elapsed = sw.elapsed_sec();
  if (elapsed > deadline) return timed_out("sync", "<barrier>", elapsed, deadline);
  return st;
}

}  // namespace lowdiff
