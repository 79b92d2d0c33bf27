#include "support/crashable.h"

#include <utility>

#include "common/error.h"
#include "storage/mem_storage.h"

namespace lowdiff {

namespace {

Status dead_status() {
  return Status(ErrorCode::kUnavailable, "backend crashed");
}

}  // namespace

CrashableStorage::CrashableStorage(std::shared_ptr<StorageBackend> durable)
    : durable_(std::move(durable)) {
  LOWDIFF_ENSURE(durable_ != nullptr, "null durable backend");
}

bool CrashableStorage::admit_op_locked() {
  if (dead_) return false;
  if (crash_after_.has_value() && *crash_after_ == 0) {
    crash_locked();
    return false;
  }
  return true;
}

void CrashableStorage::crash_locked() {
  volatile_.clear();
  dead_ = true;
  crash_after_.reset();
}

// In write/remove/sync below: if the armed countdown hits zero while
// applying op N, the op itself still reports success — the machine dies
// *after* it took effect, and only the next op observes the crash.
Status CrashableStorage::write(const std::string& key,
                               std::span<const std::byte> bytes) {
  std::lock_guard lock(mutex_);
  if (!admit_op_locked()) return dead_status();
  volatile_[key] = std::vector<std::byte>(bytes.begin(), bytes.end());
  ++applied_ops_;
  ++stats_.writes;
  stats_.bytes_written += bytes.size();
  if (crash_after_.has_value() && --*crash_after_ == 0) crash_locked();
  return {};
}

void CrashableStorage::remove(const std::string& key) {
  std::lock_guard lock(mutex_);
  if (!admit_op_locked()) return;
  volatile_[key] = std::nullopt;  // tombstone
  ++applied_ops_;
  if (crash_after_.has_value() && --*crash_after_ == 0) crash_locked();
}

Status CrashableStorage::sync() {
  std::lock_guard lock(mutex_);
  if (!admit_op_locked()) return dead_status();
  for (auto& [key, value] : volatile_) {
    if (value.has_value()) {
      const Status st = durable_->write(key, std::span(*value));
      if (!st.ok()) return st;
    } else {
      durable_->remove(key);
    }
  }
  volatile_.clear();
  const Status st = durable_->sync();
  if (!st.ok()) return st;
  ++applied_ops_;
  if (crash_after_.has_value() && --*crash_after_ == 0) crash_locked();
  return {};
}

Result<std::vector<std::byte>> CrashableStorage::read(
    const std::string& key) const {
  std::lock_guard lock(mutex_);
  if (dead_) return dead_status();
  const auto it = volatile_.find(key);
  if (it != volatile_.end()) {
    if (!it->second.has_value()) {
      return Status(ErrorCode::kNotFound, "removed: " + key);
    }
    ++stats_.reads;
    stats_.bytes_read += it->second->size();
    return *it->second;
  }
  auto r = durable_->read(key);
  if (r.ok()) {
    ++stats_.reads;
    stats_.bytes_read += r.value().size();
  }
  return r;
}

bool CrashableStorage::exists(const std::string& key) const {
  std::lock_guard lock(mutex_);
  if (dead_) return false;
  const auto it = volatile_.find(key);
  if (it != volatile_.end()) return it->second.has_value();
  return durable_->exists(key);
}

std::vector<std::string> CrashableStorage::list() const {
  std::lock_guard lock(mutex_);
  if (dead_) return {};
  // Merge durable keys with the volatile overlay (writes add, tombstones
  // hide), preserving the backend contract of sorted output.
  std::vector<std::string> keys = durable_->list();
  std::set<std::string> merged(keys.begin(), keys.end());
  for (const auto& [key, value] : volatile_) {
    if (value.has_value()) {
      merged.insert(key);
    } else {
      merged.erase(key);
    }
  }
  return {merged.begin(), merged.end()};
}

StorageStats CrashableStorage::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void CrashableStorage::set_crash_after_ops(std::uint64_t n) {
  std::lock_guard lock(mutex_);
  crash_after_ = n;
}

void CrashableStorage::disarm() {
  std::lock_guard lock(mutex_);
  crash_after_.reset();
}

void CrashableStorage::crash() {
  std::lock_guard lock(mutex_);
  crash_locked();
}

bool CrashableStorage::crashed() const {
  std::lock_guard lock(mutex_);
  return dead_;
}

std::uint64_t CrashableStorage::applied_ops() const {
  std::lock_guard lock(mutex_);
  return applied_ops_;
}

void CrashableStorage::reset_op_count() {
  std::lock_guard lock(mutex_);
  applied_ops_ = 0;
}

std::shared_ptr<StorageBackend> CrashableStorage::durable_snapshot() const {
  std::lock_guard lock(mutex_);
  auto snap = std::make_shared<MemStorage>();
  for (const auto& key : durable_->list()) {
    auto r = durable_->read(key);
    LOWDIFF_ENSURE(r.ok(), "durable read failed during snapshot");
    const Status st = snap->write(key, std::span(r.value()));
    LOWDIFF_ENSURE(st.ok(), "snapshot write failed");
  }
  return snap;
}

void CrashableStorage::reopen() {
  std::lock_guard lock(mutex_);
  dead_ = false;
  crash_after_.reset();
}

}  // namespace lowdiff
