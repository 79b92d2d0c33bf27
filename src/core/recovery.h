#pragma once

/// \file recovery.h
/// Recovery engines (paper Algorithm 1 "Recovery Process" + the parallel
/// recovery module of §6 / Fig. 7).
///
/// Serial recovery replays each differential through the optimizer:
///   M_t  = load(C^F);  M_{j+1} = M_j + Opt(decompress(C^D_j))
/// which reproduces the training-time state transitions *bit-exactly*,
/// because training applied the very same synchronized payloads (Finding 1).
///
/// All three entry points share one walk: one manifest scan
/// (CheckpointStore::manifest), the base loaded from its fulls, then every
/// committed differential record after the base read once, and its payloads
/// handed to the replay in iteration order.  recover_serial reads inline
/// and steps the optimizer whole — the serial reference.  recover_parallel
/// runs the reads ahead on a thread pool while the replay thread
/// decompresses each differential; the steps stay in iteration order
/// (Adam's updates do not commute), but each step is split by coordinate
/// into slices that the replay thread and idle pool workers apply
/// concurrently (Optimizer::step_slice, exact because the optimizers are
/// elementwise).  recover_parallel_additive collects the chain and, for a
/// *state-free* optimizer (plain SGD, whose per-iteration deltas compose
/// additively), merges it pairwise in ⌈log₂ n⌉ rounds before one apply.
///
/// The chain must be contiguous: replay starts at the iteration after the
/// base and ends at the first iteration no readable record holds — a
/// record that fails its CRC/decode, or one that never committed (a hole
/// left by a failed write) — or whose payload does not fit the engine: a
/// dense_size other than the model's, or a scheme the engine's compressor
/// rejects.  Payloads at or before the last replayed
/// iteration (a batch straddling the base, an iteration held twice) are
/// skipped.  The records after the end are still read so the report counts
/// every corrupt one.  A corrupt full checkpoint causes fallback to the
/// next older valid full; recovery throws only when no valid full exists.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "compress/compressor.h"
#include "core/checkpoint_store.h"
#include "model/model_state.h"
#include "optim/optimizer.h"

namespace lowdiff {

/// Read traffic attributed to one source (a storage backend, or one tier
/// when recovery runs over a tier::Replicator).
struct ReadSourceTotals {
  std::uint64_t reads = 0;
  std::uint64_t bytes = 0;
  /// Read latency total: wall seconds spent in store reads (per-record
  /// read+decode, summed — exceeds wall clock under parallel recovery), or
  /// modeled seconds at the tier's read bandwidth for tier-aware recovery.
  double seconds = 0.0;
};

struct RecoveryReport {
  std::uint64_t full_iteration = 0;   ///< iteration of the loaded full ckpt
  std::uint64_t final_iteration = 0;  ///< last iteration of the replayed chain
  std::uint64_t diffs_replayed = 0;
  std::uint64_t merge_rounds = 0;     ///< parallel pairwise merge rounds
  /// Iterations after the base held by records that failed CRC/decoding,
  /// plus the payload that did not fit the engine, if one ended the chain.
  std::uint64_t corrupt_diffs_skipped = 0;
  std::uint64_t corrupt_fulls_skipped = 0;  ///< fulls rejected before base
  std::uint64_t retries = 0;  ///< storage retries during recovery reads
  std::uint64_t bytes_read = 0;  ///< bytes fetched from the store's backend
  double read_seconds = 0.0;     ///< total read latency (see ReadSourceTotals)
  /// Per-source breakdown, keyed by backend/tier name ("storage" for the
  /// single-backend engine; `tier.*` names under TierAwareRecoveryEngine).
  std::map<std::string, ReadSourceTotals> read_sources;
};

class RecoveryEngine {
 public:
  /// Coordinates per slice when recover_parallel splits a step.  On
  /// livebench's MLP (100,752 parameters, 2 pool workers + the replay
  /// thread, 4-vCPU host) recovery time was flat from 2048 to 16384; at
  /// 8192 a step is 13 slices, enough to balance across three threads,
  /// and each slice's update (~40 µs of scalar Adam) dwarfs claiming it.
  /// The 1.2 MB state fits in L2, so the size does not block for cache.
  static constexpr std::size_t kReplaySlice = 8192;

  /// `optimizer` and `compressor` must match what training used.
  RecoveryEngine(ModelSpec spec, std::unique_ptr<Optimizer> optimizer,
                 std::unique_ptr<Compressor> compressor);

  /// Serial recovery (Algorithm 1 lines 17–24).
  ModelState recover_serial(const CheckpointStore& store,
                            RecoveryReport* report = nullptr) const;

  /// Parallel recovery: reads every differential record on `pool` ahead of
  /// the replay.  The calling thread decompresses each differential and
  /// steps in iteration order; each step runs as coordinate slices spread
  /// over the caller and whichever pool workers are idle (the caller alone
  /// when all are busy), then advances the step counter once.
  /// Bit-identical to recover_serial() for any optimizer whose step_slice()
  /// calls over all slices equal one step() (optimizer.h).
  ModelState recover_parallel(const CheckpointStore& store, ThreadPool& pool,
                              RecoveryReport* report = nullptr) const;

  /// Additive fast path (Fig. 7's pairwise merging): valid when one
  /// optimizer step is a state-free linear function of the gradient
  /// (plain SGD: Δ = −lr·G).  Differentials are merged pairwise in
  /// ⌈log₂ n⌉ rounds on `pool` and applied in one shot.
  /// `lr` must equal the training learning rate.
  ModelState recover_parallel_additive(const CheckpointStore& store,
                                       ThreadPool& pool, float lr,
                                       RecoveryReport* report = nullptr) const;

 private:
  /// The one recovery walk (see the file comment).  Record reads run on
  /// `pool` ahead of the replay when it is given, inline otherwise.  The
  /// chain's payloads are moved into `chain` when it is given; otherwise
  /// each is stepped through the optimizer, in iteration order — sliced
  /// across `pool` when it is given.  Either way each payload is first
  /// decompressed into one scratch tensor, which is how a payload that
  /// does not fit the engine is found.
  ModelState walk(const CheckpointStore& store, ThreadPool* pool,
                  std::vector<CompressedGrad>* chain,
                  RecoveryReport* report) const;

  ModelSpec spec_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<Compressor> compressor_;
};

}  // namespace lowdiff
