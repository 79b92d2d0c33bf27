#pragma once

/// \file async_writer.h
/// Background persistence thread: the "persist" half of CheckFreq's
/// snapshot/persist decomposition, also used by LowDiff's checkpointing
/// process to overlap storage writes with training.
///
/// Jobs are (key, bytes) pairs executed FIFO on a dedicated thread.  The
/// queue depth is bounded; a full queue back-pressures the submitter —
/// exactly the condition under which frequent checkpointing starts stalling
/// training (paper Challenge 2).
///
/// Writes are hardened: retryable storage faults are retried with bounded
/// exponential backoff, and in committed mode every job runs the
/// write → sync → commit-marker protocol so a crash mid-job never leaves a
/// visible torn checkpoint.  Committed writers group-commit: the thread
/// takes one job, then every job already queued behind it (at most
/// max_pending), writes their data, issues one sync for the group, then
/// writes the markers in submission order (DESIGN.md §10).  An idle writer
/// forms groups of one — exactly committed_write's data → sync → marker.

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>

#include "common/buffer_pool.h"
#include "common/retry.h"
#include "obs/metrics.h"
#include "queue/reusing_queue.h"
#include "storage/backend.h"

namespace lowdiff {

class AsyncWriter {
 public:
  struct Job {
    std::string key;
    /// Shared immutable payload: plain vectors and pooled buffers both
    /// convert in without copying bytes, and replica fan-out shares one
    /// allocation across writers.
    ByteBuffer bytes;
    /// Invoked on the writer thread after the write *succeeds* (in
    /// committed mode: after its marker).  Failed jobs (retry budget
    /// exhausted) are counted, logged, and skipped.  Callbacks of all jobs
    /// fire in submission order.
    std::function<void()> on_done;
    /// Invoked on the writer thread with the job's final status, success or
    /// not.  Only tests set it, to observe each record's outcome; the
    /// Replicator observes its lanes through their MonitoredBackend
    /// wrappers instead.
    std::function<void(const Status&)> on_result;
  };

  static constexpr std::size_t kDefaultMaxPending = 64;

  struct Options {
    /// Bound on queued jobs (0 = unbounded), and so on the size of a
    /// commit group.  Unbounded is a foot-gun under latency spikes — memory
    /// grows without back-pressure — so the default is a finite depth.
    std::size_t max_pending = kDefaultMaxPending;
    RetryPolicy retry;
    /// When true every job uses the atomic commit protocol
    /// (write → sync → marker, one sync per group) instead of a bare write.
    bool committed = false;
    /// Stream id for this writer's jitter RNG, combined with retry.seed via
    /// RetryPolicy::make_rng so independent writers decorrelate while the
    /// whole schedule stays a pure function of the injected seeds.
    std::uint64_t seed = 0xa51dc0de;
  };

  AsyncWriter(std::shared_ptr<StorageBackend> backend, Options options);

  /// All-defaults convenience (bounded queue, plain retried writes).
  explicit AsyncWriter(std::shared_ptr<StorageBackend> backend);

  /// Convenience: bound the queue, defaults for everything else.
  AsyncWriter(std::shared_ptr<StorageBackend> backend, std::size_t max_pending);

  AsyncWriter(const AsyncWriter&) = delete;
  AsyncWriter& operator=(const AsyncWriter&) = delete;

  /// Drains all pending jobs, then joins the writer thread.
  ~AsyncWriter();

  /// Enqueues a write.  Blocks if the pending queue is full.  Returns false
  /// if the writer is already shut down.
  bool submit(std::string key, ByteBuffer bytes,
              std::function<void()> on_done = {},
              std::function<void(const Status&)> on_result = {});

  /// Non-blocking submit; false if full or shut down (caller decides
  /// whether to stall or drop — strategies differ).
  bool try_submit(std::string key, ByteBuffer bytes,
                  std::function<void()> on_done = {});

  /// Blocks until every job submitted so far has been written.
  void flush();

  /// Stops accepting jobs, drains, joins.  Idempotent.
  void shutdown();

  std::uint64_t completed_jobs() const { return completed_.load(); }
  /// Jobs whose write failed even after retries (subset of completed).
  std::uint64_t failed_jobs() const { return failed_.load(); }
  /// Total retry attempts performed across all jobs.
  std::uint64_t retries() const { return retries_.load(); }
  std::size_t pending_jobs() const { return queue_.size(); }
  std::size_t max_pending() const { return options_.max_pending; }

 private:
  struct Metrics {
    obs::Counter& jobs_total;
    obs::Counter& bytes_total;
    obs::Counter& retries_total;
    obs::Counter& failed_total;
    obs::Counter& syncs_total;
    obs::Counter& submit_blocked_us;
    obs::Gauge& queue_depth;
    obs::Histogram& persist_us;
    static Metrics resolve();
  };

  using JobHandle = std::shared_ptr<const Job>;

  void run();
  /// Persists one group (committed mode) or one job (plain mode) and runs
  /// the callbacks in submission order.
  void persist(std::span<const JobHandle> group, Xoshiro256& rng);

  std::shared_ptr<StorageBackend> backend_;
  Options options_;
  Metrics metrics_;
  ReusingQueue<Job> queue_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::mutex flush_mutex_;
  std::condition_variable flush_cv_;
  std::thread worker_;
};

}  // namespace lowdiff
