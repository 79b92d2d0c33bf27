#pragma once

/// \file strategies.h
/// Live (byte-moving, multi-threaded) implementations of every
/// checkpointing strategy evaluated in the paper.  These are the policies
/// the TrainingEngine drives; the analytic counterparts for cluster-scale
/// timelines live in sim/strategy_model.h.
///
/// Threading contract: after_step() is called from the training thread of
/// the checkpointing rank, once per iteration, after the optimizer update.
/// Time spent inside after_step() is, by construction, training stall.
/// Background threads owned by a strategy are joined by flush()/destructor.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "compress/compressor.h"
#include "compress/merge.h"
#include "core/checkpoint_store.h"
#include "model/model_state.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "queue/reusing_queue.h"
#include "storage/async_writer.h"
#include "storage/bandwidth.h"
#include "storage/mem_storage.h"

namespace lowdiff {

struct StrategyStats {
  std::uint64_t diff_ckpts = 0;
  std::uint64_t full_ckpts = 0;
  std::uint64_t batched_writes = 0;
  std::uint64_t bytes_written = 0;
  /// Storage retries performed by the strategy's background writer.
  std::uint64_t write_retries = 0;
  std::size_t queue_high_watermark = 0;
  /// Peak bytes of checkpoint payloads resident on the "device" side
  /// (i.e., not yet offloaded to the CPU buffer) — Exp. 6(b).
  std::size_t peak_device_bytes = 0;
};

/// Registry handles shared by every strategy, resolved once per instance
/// under `ckpt.<label>.*`.  `stall_us` samples time spent inside
/// after_step() / on_layer_gradient() on the training thread — training
/// stall by the threading contract above.  `overlap_us` samples background
/// work (offload, replica update) overlapped with training.
struct StrategyObs {
  obs::Counter& full_total;
  obs::Counter& diff_total;
  obs::Counter& batched_write_total;
  obs::Counter& bytes_total;
  obs::Histogram& stall_us;
  obs::Histogram& overlap_us;

  static StrategyObs resolve(const std::string& label);
};

class CheckpointStrategy {
 public:
  virtual ~CheckpointStrategy() = default;

  /// `state`: post-update model state of iteration `iter` (0-based).
  /// `sync_grad`: the synchronized compressed gradient of the iteration
  /// (zero-copy handle; null when the training loop runs without
  /// compression and the strategy does not consume gradients).
  virtual void after_step(std::uint64_t iter, const ModelState& state,
                          std::shared_ptr<const CompressedGrad> sync_grad) = 0;

  /// Blocks until all checkpoint data accepted so far is durable.
  virtual void flush() = 0;

  virtual std::string name() const = 0;
  virtual StrategyStats stats() const = 0;
};

/// Synchronous full checkpointing (torch.save): blocks training for the
/// entire serialize + write.
class TorchSaveStrategy final : public CheckpointStrategy {
 public:
  TorchSaveStrategy(std::shared_ptr<CheckpointStore> store, std::uint64_t interval);

  void after_step(std::uint64_t iter, const ModelState& state,
                  std::shared_ptr<const CompressedGrad> sync_grad) override;
  void flush() override { (void)store_->backend().sync(); }
  std::string name() const override { return "torch.save"; }
  StrategyStats stats() const override;

 private:
  std::shared_ptr<CheckpointStore> store_;
  std::uint64_t interval_;
  StrategyObs obs_;
  StrategyStats stats_;
};

/// CheckFreq: snapshot on the training thread (the GPU→CPU copy), persist
/// on a background writer with a single in-flight buffer — a new snapshot
/// waits for the previous persist (Mohan et al., §2.2).
class CheckFreqStrategy final : public CheckpointStrategy {
 public:
  CheckFreqStrategy(std::shared_ptr<CheckpointStore> store, std::uint64_t interval);

  void after_step(std::uint64_t iter, const ModelState& state,
                  std::shared_ptr<const CompressedGrad> sync_grad) override;
  void flush() override;
  std::string name() const override { return "CheckFreq"; }
  StrategyStats stats() const override;

 private:
  std::shared_ptr<CheckpointStore> store_;
  std::uint64_t interval_;
  StrategyObs obs_;
  AsyncWriter writer_;
  StrategyStats stats_;
};

/// Gemini: checkpoints into a (remote) CPU-memory tier every interval and
/// persists from that tier to durable storage at a lower frequency.
class GeminiStrategy final : public CheckpointStrategy {
 public:
  GeminiStrategy(std::shared_ptr<StorageBackend> memory_tier,
                 std::shared_ptr<CheckpointStore> durable,
                 std::uint64_t interval, std::uint64_t persist_interval);

  void after_step(std::uint64_t iter, const ModelState& state,
                  std::shared_ptr<const CompressedGrad> sync_grad) override;
  void flush() override;
  std::string name() const override { return "Gemini"; }
  StrategyStats stats() const override;

  /// Recovery from the in-memory tier (software failures / peer survives).
  ModelState recover_from_memory(const ModelSpec& spec) const;

 private:
  std::shared_ptr<StorageBackend> memory_tier_;
  /// Commit-protocol view over the memory tier, so in-memory checkpoints
  /// are integrity-checked exactly like durable ones.
  CheckpointStore tier_store_;
  std::shared_ptr<CheckpointStore> durable_;
  std::uint64_t interval_;
  std::uint64_t persist_interval_;
  StrategyObs obs_;
  AsyncWriter writer_;
  StrategyStats stats_;
};

/// Check-N-Run-style differential checkpointing for general models: the
/// differential is computed from consecutive model states on the critical
/// path (WAR dependency, Fig. 3a), the parameter diff is top-k compressed,
/// and — as Exp. 7 establishes — the optimizer-state diff is stored raw.
class NaiveDcStrategy final : public CheckpointStrategy {
 public:
  NaiveDcStrategy(std::shared_ptr<CheckpointStore> store,
                  std::unique_ptr<Compressor> compressor,
                  std::uint64_t diff_interval, std::uint64_t full_interval);

  void after_step(std::uint64_t iter, const ModelState& state,
                  std::shared_ptr<const CompressedGrad> sync_grad) override;
  void flush() override;
  std::string name() const override { return "NaiveDC"; }
  StrategyStats stats() const override;

  /// Serial recovery: load the latest full, then add each diff due after it
  /// (params += decompress(params_diff); moments += raw diffs), in order.
  /// The first due diff that is missing or unreadable ends the chain, and
  /// so does the next full due, which never committed.
  ModelState recover(const ModelSpec& spec) const;

  static std::string naive_diff_key(std::uint64_t iter);

 private:
  std::shared_ptr<CheckpointStore> store_;
  std::unique_ptr<Compressor> compressor_;
  std::uint64_t diff_interval_;
  std::uint64_t full_interval_;
  std::unique_ptr<ModelState> prev_;  // state at the last differential
  StrategyObs obs_;
  AsyncWriter writer_;
  StrategyStats stats_;
};

/// LowDiff (paper §4): reuses the synchronized compressed gradient as the
/// differential checkpoint.  after_step() only enqueues a zero-copy handle;
/// a dedicated checkpointing thread offloads payloads (optionally through a
/// PCIe throttler), batches them in a CPU buffer, and issues batched writes
/// through an async writer.  Full checkpoints are snapshotted on the
/// training thread and persisted asynchronously.
class LowDiffStrategy final : public CheckpointStrategy {
 public:
  struct Options {
    std::uint64_t batch_size = 2;        ///< BS (differentials per write)
    std::uint64_t full_interval = 20;    ///< FCF interval in iterations
    std::size_t queue_capacity = 8;      ///< bounded reusing queue
    bool offload_batching_to_cpu = true; ///< Exp. 6(b) ablation switch
    /// Garbage-collect superseded checkpoints once a new full checkpoint
    /// is durable (bounds storage growth in long runs).
    bool prune_on_full = false;
    /// Optional PCIe model for offloads (null = instantaneous).
    std::shared_ptr<Throttler> pcie;
  };

  LowDiffStrategy(std::shared_ptr<CheckpointStore> store, Options options);
  ~LowDiffStrategy() override;

  void after_step(std::uint64_t iter, const ModelState& state,
                  std::shared_ptr<const CompressedGrad> sync_grad) override;
  void flush() override;
  std::string name() const override { return "LowDiff"; }
  StrategyStats stats() const override;

 private:
  void checkpointing_loop();
  void write_batch(std::vector<CompressedGrad> members);

  std::shared_ptr<CheckpointStore> store_;
  Options options_;
  StrategyObs obs_;
  ReusingQueue<CompressedGrad> queue_;
  AsyncWriter writer_;
  std::thread ckpt_thread_;

  mutable std::mutex mutex_;  // guards stats_ and batch bookkeeping
  std::condition_variable drained_cv_;
  std::uint64_t enqueued_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<CompressedGrad> batch_buffer_;
  std::size_t device_resident_bytes_ = 0;
  StrategyStats stats_;
};

/// LowDiff+ (paper §5): no gradient compression.  The training loop streams
/// layer-wise dense gradient chunks (reverse layer order, as the backward
/// pass produces them); a snapshot thread offloads each chunk to host
/// memory and applies it to a CPU-resident model replica with the same
/// optimizer, keeping an always-up-to-date in-memory checkpoint.  The
/// replica is persisted asynchronously every persist_interval iterations.
class LowDiffPlusStrategy final : public CheckpointStrategy {
 public:
  /// One layer's gradient for one iteration, in flat-parameter coordinates.
  struct GradChunk {
    std::uint64_t iteration = 0;
    std::size_t offset = 0;
    std::vector<float> values;
    bool last_of_iteration = false;
  };

  struct Options {
    std::uint64_t persist_interval = 4;
    std::size_t queue_capacity = 64;
    /// Optional PCIe model for chunk offloads.
    std::shared_ptr<Throttler> pcie;
  };

  /// `init` must equal the training-side initial state (the paper deep-
  /// copies the GPU model at spawn time); `optimizer` must match training.
  LowDiffPlusStrategy(std::shared_ptr<CheckpointStore> store,
                      const ModelState& init,
                      std::unique_ptr<Optimizer> optimizer, Options options);
  ~LowDiffPlusStrategy() override;

  /// Layer-wise entry point (Algorithm 2): enqueue one chunk.
  void on_layer_gradient(GradChunk chunk);

  /// Whole-iteration fallback: splits a dense payload into one chunk.
  void after_step(std::uint64_t iter, const ModelState& state,
                  std::shared_ptr<const CompressedGrad> sync_grad) override;

  void flush() override;
  std::string name() const override { return "LowDiff+"; }
  StrategyStats stats() const override;

  /// In-memory checkpoint: the CPU replica after all chunks up to and
  /// including `iter` have been applied (software-failure recovery, §5.3).
  ModelState replica_snapshot(std::uint64_t iter);

 private:
  void update_loop();

  std::shared_ptr<CheckpointStore> store_;
  std::unique_ptr<Optimizer> optimizer_;
  Options options_;
  StrategyObs obs_;
  ReusingQueue<GradChunk> queue_;
  AsyncWriter writer_;
  std::thread update_thread_;

  mutable std::mutex replica_mutex_;
  std::condition_variable replica_cv_;
  ModelState replica_;
  std::uint64_t replica_iter_done_ = 0;  // iterations fully applied
  std::atomic<std::uint64_t> chunks_enqueued_{0};  // not under the mutex
  std::uint64_t chunks_processed_ = 0;
  StrategyStats stats_;
};

}  // namespace lowdiff
