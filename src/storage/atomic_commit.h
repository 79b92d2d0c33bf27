#pragma once

/// \file atomic_commit.h
/// Manifest-commit protocol for atomic checkpoint writes.
///
/// A data object at `key` is only *visible* once a commit marker exists at
/// `commit/<key>`.  The protocol is write-data → sync (fsync analogue) →
/// write-marker, and a group of records may share the sync (group commit,
/// DESIGN.md §10); the marker records the data length and CRC32C, so a reader
/// can detect torn or bit-flipped data even when the backend lies about the
/// write having succeeded.  Readers treat marker-less data as absent
/// (kNotFound) and marker/data mismatches as kCorrupted.
///
/// matches_marker() is the one check of a data record's bytes: every reader
/// that validates data (committed_read, tier::Replicator's verified pass,
/// tier::QuorumRepairEngine's source pick) calls it, and the decoders in
/// serializer.h trust what it passed.  A marker vouches for its data but
/// nothing vouches for the marker, so parse_commit_marker() checks the
/// marker's own frame CRC.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/retry.h"
#include "storage/backend.h"

namespace lowdiff {

inline constexpr std::string_view kCommitPrefix = "commit/";

inline std::string commit_marker_key(const std::string& data_key) {
  return std::string(kCommitPrefix) + data_key;
}

inline bool is_commit_marker(const std::string& key) {
  return key.starts_with(kCommitPrefix);
}

/// Inverse of commit_marker_key (caller checks is_commit_marker first).
inline std::string data_key_of_marker(const std::string& marker_key) {
  return marker_key.substr(kCommitPrefix.size());
}

/// Integrity metadata the marker carries about its data object.
struct CommitRecord {
  std::uint64_t data_len = 0;
  std::uint32_t data_crc = 0;
};

/// Serializes a marker for `data` (framed as RecordType::kCommitMarker).
std::vector<std::byte> make_commit_marker(std::span<const std::byte> data);

/// Parses a marker object; kCorrupted if its frame, shape or frame CRC is
/// bad.
Result<CommitRecord> parse_commit_marker(std::span<const std::byte> bytes);

/// True iff `data` has the length and CRC32C its marker recorded.
bool matches_marker(std::span<const std::byte> data, const CommitRecord& record);

/// write() with bounded-backoff retries on retryable failures.
Status write_with_retry(StorageBackend& backend, const std::string& key,
                        std::span<const std::byte> bytes,
                        const RetryPolicy& policy, Xoshiro256& rng,
                        std::uint64_t* retries_out = nullptr);

/// read() with bounded-backoff retries on retryable failures.
Result<std::vector<std::byte>> read_with_retry(
    const StorageBackend& backend, const std::string& key,
    const RetryPolicy& policy, Xoshiro256& rng,
    std::uint64_t* retries_out = nullptr);

/// One record of a commit group: the bytes to commit under `*key`.
struct GroupRecord {
  const std::string* key = nullptr;
  std::span<const std::byte> bytes;
};

/// Group commit: every record's data (retried) → one sync → the markers of
/// the records whose data landed, in order (retried).  `status[i]` gets
/// record i's final status: its data failure, the group's sync failure
/// (no marker is written for any record when the sync fails), or its
/// marker write's status.  As in committed_write, the sync is never
/// retried and is skipped when no data landed.  Returns the number of
/// syncs issued (0 or 1).
std::size_t committed_write_group(StorageBackend& backend,
                                  std::span<const GroupRecord> records,
                                  std::span<Status> status,
                                  const RetryPolicy& policy, Xoshiro256& rng,
                                  std::uint64_t* retries_out = nullptr);

/// Full commit protocol for one record — the group of one: data (retried)
/// → sync → marker (retried).  On failure the data object may exist but
/// stays uncommitted/invisible.
Status committed_write(StorageBackend& backend, const std::string& key,
                       std::span<const std::byte> bytes,
                       const RetryPolicy& policy, Xoshiro256& rng,
                       std::uint64_t* retries_out = nullptr);

/// Reads a committed object: kNotFound without a marker, kCorrupted when
/// the data fails matches_marker() ("torn data" on a length mismatch, "CRC
/// mismatch" otherwise).
Result<std::vector<std::byte>> committed_read(
    const StorageBackend& backend, const std::string& key,
    const RetryPolicy& policy, Xoshiro256& rng,
    std::uint64_t* retries_out = nullptr);

/// True iff a commit marker exists for `key`.
bool is_committed(const StorageBackend& backend, const std::string& key);

}  // namespace lowdiff
