#pragma once

/// \file trainer.h
/// Live distributed training driver: `world` worker threads training a
/// real MLP on sharded synthetic data, synchronizing gradients through the
/// in-process communicator (compressed allgather+sum, or dense allreduce),
/// and driving a checkpoint strategy from rank 0.
///
/// This is the correctness half of the reproduction: integration tests run
/// it, kill it, recover from the checkpoint store, and verify bit-exact
/// state and an unchanged loss trajectory.  (Timeline/throughput results
/// come from the analytic simulator in sim/.)

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/comm_group.h"
#include "compress/compressor.h"
#include "compress/error_feedback.h"
#include "core/strategies.h"
#include "model/dataset.h"
#include "model/mlp.h"
#include "optim/adam.h"
#include "optim/sgd.h"

namespace lowdiff {

/// Which gradient compression the training loop applies (§2.3).
enum class GradCompression {
  kTopK,     ///< magnitude sparsification (the paper's default)
  kRandomK,  ///< random sparsification
  kQuant8,   ///< 8-bit block quantization (synced dense, then quantized)
  kDense,    ///< no compression — the LowDiff+ regime
};

/// Which optimizer drives the parameter updates (recovery must replay
/// through the identical one — Finding 1).
enum class OptimizerKind {
  kAdam,
  kSgd,
};

struct TrainerConfig {
  std::size_t world = 2;
  std::size_t batch_size = 32;
  /// Sparsification ratio; 0 selects the dense (LowDiff+) regime
  /// regardless of `compression`.
  double rho = 0.01;
  GradCompression compression = GradCompression::kTopK;
  /// Residual error feedback on the local gradient before compression
  /// (sparse schemes only).
  bool error_feedback = false;
  OptimizerKind optimizer = OptimizerKind::kAdam;
  AdamConfig adam{};  ///< used when optimizer == kAdam
  SgdConfig sgd{};    ///< used when optimizer == kSgd
  std::uint64_t seed = 42;
};

struct TrainResult {
  std::vector<double> losses;  ///< rank-0 training loss per iteration
  double wall_seconds = 0.0;
  /// Seconds rank 0 spent blocked inside the strategy (training stall).
  double stall_seconds = 0.0;
  /// Iterations that ended with checkpoint durability lagging (the
  /// replication layer's `tier.replication.durability_lag_records` gauge
  /// was nonzero after the strategy ran) — training proceeded, but a
  /// failure in that window could lose more than one checkpoint interval.
  std::uint64_t degraded_iterations = 0;
};

class Trainer {
 public:
  Trainer(MlpConfig mlp_config, TrainerConfig config);

  const MlpNet& net() const { return net_; }
  const ModelSpec& spec() const { return net_.spec(); }
  const TrainerConfig& config() const { return config_; }

  /// Runs iterations [start_iter, start_iter + num_iters) with the given
  /// strategy driven from rank 0.  `strategy` may be null (pure training).
  /// If `layerwise` is non-null (LowDiff+ mode, requires rho == 0), dense
  /// gradients are streamed to it per layer in reverse layer order instead
  /// of calling after_step.
  TrainResult run(std::uint64_t start_iter, std::uint64_t num_iters,
                  CheckpointStrategy* strategy,
                  LowDiffPlusStrategy* layerwise = nullptr);

  /// Worker `rank`'s current model state.
  const ModelState& state(std::size_t rank) const;

  /// Restores every worker to `state` (recovery broadcast) and clears
  /// error-feedback residuals.
  void set_state(const ModelState& state);

  /// Evaluation helpers on freshly generated batches.
  double eval_loss(std::uint64_t batch_index = 1'000'000) const;
  double eval_accuracy(std::uint64_t batch_index = 1'000'000) const;

  /// A fresh optimizer identical to the training one — what a recovery
  /// engine must replay differentials through.
  std::unique_ptr<Optimizer> make_optimizer() const {
    return optimizer_->clone();
  }

 private:
  MlpNet net_;
  TrainerConfig config_;
  SyntheticDataset dataset_;
  std::unique_ptr<Compressor> compressor_;
  std::vector<ModelState> states_;
  std::vector<std::unique_ptr<ErrorFeedback>> feedback_;
  std::unique_ptr<Optimizer> optimizer_;
};

}  // namespace lowdiff
