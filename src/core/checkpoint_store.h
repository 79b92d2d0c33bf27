#pragma once

/// \file checkpoint_store.h
/// Naming scheme and manifest over a StorageBackend for full, differential,
/// and batched-differential checkpoints.  Keys embed zero-padded iteration
/// numbers so a lexicographic listing is a chronological manifest.
/// Recovery (Eq. 2) scans it once — manifest() is one list() — and then
/// reads each committed record it needs once: the base full through
/// try_read_full(), each differential record after it through
/// try_read_diffs(), which decodes a `diff/` or `batch/` record whole.
///
/// All writes follow the atomic commit protocol (atomic_commit.h): a data
/// object is only part of the manifest once its commit marker exists, and
/// the marker carries the object's length + CRC32C.  Scans ignore
/// uncommitted objects, so a torn or in-flight write can never be recovered
/// from; reads validate against the marker and report kCorrupted instead of
/// silently consuming damaged state.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/retry.h"
#include "compress/compressed_grad.h"
#include "compress/merge.h"
#include "model/model_state.h"
#include "storage/backend.h"

namespace lowdiff {

class CheckpointStore {
 public:
  explicit CheckpointStore(std::shared_ptr<StorageBackend> backend,
                           RetryPolicy retry = {});

  StorageBackend& backend() { return *backend_; }
  const StorageBackend& backend() const { return *backend_; }
  std::shared_ptr<StorageBackend> backend_ptr() const { return backend_; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // --- writes -------------------------------------------------------------

  /// Persists a full checkpoint of `state` taken after iteration `iter`.
  Status put_full(std::uint64_t iter, const ModelState& state);

  /// Sharded full checkpoint: rank `rank` of `world` persists its slice of
  /// the flat state (params + moments are split by the same element range).
  /// A sharded checkpoint is only *visible* to latest_full()/read_full()
  /// once all `world` shards are present, so a failure mid-save can never
  /// be recovered from half a checkpoint.
  Status put_full_shard(std::uint64_t iter, std::uint32_t rank,
                        std::uint32_t world, const ModelState& state);

  /// Persists one differential checkpoint (a reused compressed gradient).
  Status put_diff(const CompressedGrad& grad);

  /// Persists a batched differential checkpoint C^B.
  Status put_batch(const BatchedGrad& batch);

  /// Commits pre-serialized bytes under `key` (async write paths and the
  /// Gemini memory tier go through this so their objects are visible).
  Status put_raw(const std::string& key, std::span<const std::byte> bytes);

  /// Pre-serialized variants for async write paths.
  static std::string full_key(std::uint64_t iter);
  static std::string diff_key(std::uint64_t iter);
  static std::string batch_key(std::uint64_t first, std::uint64_t last);
  static std::string shard_key(std::uint64_t iter, std::uint32_t rank,
                               std::uint32_t world);

  // --- manifest -----------------------------------------------------------

  /// One committed differential record: `diff/<first>` (first == last) or
  /// `batch/<first>_<last>`.
  struct DiffRecord {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    std::string key;

    bool operator==(const DiffRecord&) const = default;
  };

  /// What one list() shows as committed.
  struct Manifest {
    /// Every committed full checkpoint — monolithic ones and complete shard
    /// sets (every rank's shard committed) — ascending.  Recovery walks it
    /// backwards when the latest full turns out to be corrupt.
    std::vector<std::uint64_t> fulls;
    /// Every committed differential record, ascending by (first, last).
    std::vector<DiffRecord> diffs;
  };

  /// Scans the backend once.
  Manifest manifest() const;

  /// Iteration of the most recent committed full checkpoint, if any.
  std::optional<std::uint64_t> latest_full() const;

  /// Iterations held by committed differential records strictly after
  /// `iter`, ascending.
  std::vector<std::uint64_t> diffs_after(std::uint64_t iter) const;

  // --- reads --------------------------------------------------------------

  /// Throwing read (programming-error style) for callers that have already
  /// validated existence via the manifest.
  ModelState read_full(std::uint64_t iter, const ModelSpec& spec) const;

  /// Non-throwing reads: kNotFound when absent/uncommitted, kCorrupted on
  /// CRC/length mismatch or undecodable payload.
  Result<ModelState> try_read_full(std::uint64_t iter, const ModelSpec& spec) const;
  /// Reads and decodes `record` once; its payloads in stored order.
  Result<std::vector<CompressedGrad>> try_read_diffs(const DiffRecord& record) const;

  // --- maintenance ---------------------------------------------------------

  /// Deletes checkpoints made obsolete by the full checkpoint at `iter`
  /// (older fulls and all differentials at or before `iter`), markers
  /// included.
  void prune_before(std::uint64_t iter);

  /// Total bytes currently stored, split by kind (Exp. 7 storage table).
  struct Usage {
    std::uint64_t full_bytes = 0;
    std::uint64_t diff_bytes = 0;
    std::uint64_t full_count = 0;
    std::uint64_t diff_count = 0;
  };
  Usage usage() const;

  /// Storage retries performed by this store's reads/writes so far.
  std::uint64_t retry_count() const {
    return retries_.load(std::memory_order_relaxed);
  }

 private:
  /// Parses a manifest key; returns false for unrelated keys.
  static bool parse_key(const std::string& key, char& kind, std::uint64_t& a,
                        std::uint64_t& b);

  /// Data keys from list() that have a commit marker (markers excluded).
  std::vector<std::string> committed_keys() const;

  Status write_committed(const std::string& key,
                         std::span<const std::byte> bytes) const;
  Result<std::vector<std::byte>> read_committed(const std::string& key) const;

  std::shared_ptr<StorageBackend> backend_;
  RetryPolicy retry_;
  mutable std::mutex rng_mutex_;
  mutable Xoshiro256 rng_;
  mutable std::atomic<std::uint64_t> retries_{0};
};

}  // namespace lowdiff
