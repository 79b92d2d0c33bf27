#include "storage/atomic_commit.h"

#include <cstring>

#include "common/crc32.h"
#include "common/error.h"
#include "storage/serializer.h"

namespace lowdiff {

namespace {

constexpr std::size_t kMarkerPayloadSize = sizeof(std::uint64_t) + sizeof(std::uint32_t);

}  // namespace

std::vector<std::byte> make_commit_marker(std::span<const std::byte> data) {
  CommitRecord rec;
  rec.data_len = data.size();
  rec.data_crc = crc32c(data.data(), data.size());
  std::vector<std::byte> payload(kMarkerPayloadSize);
  std::memcpy(payload.data(), &rec.data_len, sizeof(rec.data_len));
  std::memcpy(payload.data() + sizeof(rec.data_len), &rec.data_crc,
              sizeof(rec.data_crc));
  return frame(RecordType::kCommitMarker, payload);
}

Result<CommitRecord> parse_commit_marker(std::span<const std::byte> bytes) {
  using R = Result<CommitRecord>;
  try {
    const Frame f = unframe(bytes);
    if (f.type != RecordType::kCommitMarker ||
        f.payload.size() != kMarkerPayloadSize) {
      return R(ErrorCode::kCorrupted, "commit marker has wrong type/shape");
    }
    if (crc32c(f.payload.data(), f.payload.size()) != f.payload_crc) {
      return R(ErrorCode::kCorrupted, "commit marker CRC mismatch");
    }
    CommitRecord rec;
    std::memcpy(&rec.data_len, f.payload.data(), sizeof(rec.data_len));
    std::memcpy(&rec.data_crc, f.payload.data() + sizeof(rec.data_len),
                sizeof(rec.data_crc));
    return rec;
  } catch (const Error& e) {
    return R(ErrorCode::kCorrupted,
             std::string("commit marker unreadable: ") + e.what());
  }
}

bool matches_marker(std::span<const std::byte> data, const CommitRecord& record) {
  return data.size() == record.data_len &&
         crc32c(data.data(), data.size()) == record.data_crc;
}

Status write_with_retry(StorageBackend& backend, const std::string& key,
                        std::span<const std::byte> bytes,
                        const RetryPolicy& policy, Xoshiro256& rng,
                        std::uint64_t* retries_out) {
  return run_with_retry(
      policy, rng, [&] { return backend.write(key, bytes); }, retries_out);
}

Result<std::vector<std::byte>> read_with_retry(
    const StorageBackend& backend, const std::string& key,
    const RetryPolicy& policy, Xoshiro256& rng, std::uint64_t* retries_out) {
  const int attempts = std::max(1, policy.max_attempts);
  Result<std::vector<std::byte>> result(ErrorCode::kUnavailable, key);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      retry_sleep(policy.delay_sec(attempt - 1, rng));
      if (retries_out) ++*retries_out;
    }
    result = backend.read(key);
    if (result.ok() || !result.status().retryable()) return result;
  }
  return Result<std::vector<std::byte>>(
      ErrorCode::kExhausted, "read retry budget spent for " + key +
                                 " — last: " + result.status().to_string());
}

std::size_t committed_write_group(StorageBackend& backend,
                                  std::span<const GroupRecord> records,
                                  std::span<Status> status,
                                  const RetryPolicy& policy, Xoshiro256& rng,
                                  std::uint64_t* retries_out) {
  LOWDIFF_ENSURE(status.size() == records.size(), "one status per record");
  bool any_data = false;
  for (std::size_t i = 0; i < records.size(); ++i) {
    status[i] = write_with_retry(backend, *records[i].key, records[i].bytes,
                                 policy, rng, retries_out);
    any_data |= status[i].ok();
  }
  if (!any_data) return 0;
  // Durability unknown ⇒ the whole group stays unmarked (invisible).
  if (Status st = backend.sync(); !st.ok()) {
    for (auto& s : status) {
      if (s.ok()) s = st;
    }
    return 1;
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!status[i].ok()) continue;
    const auto marker = make_commit_marker(records[i].bytes);
    status[i] = write_with_retry(backend, commit_marker_key(*records[i].key),
                                 marker, policy, rng, retries_out);
  }
  return 1;
}

Status committed_write(StorageBackend& backend, const std::string& key,
                       std::span<const std::byte> bytes,
                       const RetryPolicy& policy, Xoshiro256& rng,
                       std::uint64_t* retries_out) {
  const GroupRecord record{&key, bytes};
  Status status;
  committed_write_group(backend, {&record, 1}, {&status, 1}, policy, rng,
                        retries_out);
  return status;
}

Result<std::vector<std::byte>> committed_read(
    const StorageBackend& backend, const std::string& key,
    const RetryPolicy& policy, Xoshiro256& rng, std::uint64_t* retries_out) {
  using R = Result<std::vector<std::byte>>;
  auto marker_bytes =
      read_with_retry(backend, commit_marker_key(key), policy, rng, retries_out);
  if (!marker_bytes.ok()) {
    // No marker → the object was never committed; report absence, not
    // corruption (a torn uncommitted write is invisible by design).
    if (marker_bytes.status().code() == ErrorCode::kNotFound) {
      return R(ErrorCode::kNotFound, "uncommitted: " + key);
    }
    return R(marker_bytes.status());
  }
  auto rec = parse_commit_marker(*marker_bytes);
  if (!rec.ok()) return R(rec.status());

  auto data = read_with_retry(backend, key, policy, rng, retries_out);
  if (!data.ok()) {
    if (data.status().code() == ErrorCode::kNotFound) {
      return R(ErrorCode::kCorrupted, "committed but data missing: " + key);
    }
    return R(data.status());
  }
  if (!matches_marker(*data, *rec)) {
    return R(ErrorCode::kCorrupted,
             data->size() != rec->data_len
                 ? "torn data for " + key + ": " + std::to_string(data->size()) +
                       " bytes vs committed " + std::to_string(rec->data_len)
                 : "CRC mismatch for " + key);
  }
  return data;
}

bool is_committed(const StorageBackend& backend, const std::string& key) {
  return backend.exists(commit_marker_key(key));
}

}  // namespace lowdiff
