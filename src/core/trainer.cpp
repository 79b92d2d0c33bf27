#include "core/trainer.h"

#include <thread>

#include "common/error.h"
#include "common/stopwatch.h"
#include "compress/dense.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "compress/quant8.h"
#include "compress/randomk.h"
#include "compress/topk.h"
#include "tensor/ops.h"

namespace lowdiff {

Trainer::Trainer(MlpConfig mlp_config, TrainerConfig config)
    : net_(std::move(mlp_config)), config_(config),
      dataset_(net_.spec().layers.front().shape[1],  // fc0.weight is {out, in}
               net_.spec().layers.back().shape[0],   // last bias is {classes}
               config.seed) {
  switch (config_.optimizer) {
    case OptimizerKind::kAdam:
      optimizer_ = std::make_unique<Adam>(config_.adam);
      break;
    case OptimizerKind::kSgd:
      optimizer_ = std::make_unique<Sgd>(config_.sgd);
      break;
  }
  LOWDIFF_ENSURE(optimizer_ != nullptr, "unknown optimizer kind");
  LOWDIFF_ENSURE(config_.world >= 1, "world must be >= 1");
  if (config_.rho <= 0.0) config_.compression = GradCompression::kDense;
  switch (config_.compression) {
    case GradCompression::kTopK:
      compressor_ = std::make_unique<TopKCompressor>(config_.rho);
      break;
    case GradCompression::kRandomK:
      compressor_ = std::make_unique<RandomKCompressor>(config_.rho, config_.seed);
      break;
    case GradCompression::kQuant8:
      compressor_ = std::make_unique<Quant8Compressor>();
      break;
    case GradCompression::kDense:
      compressor_ = std::make_unique<DenseCompressor>();
      config_.rho = 0.0;
      break;
  }
  states_.reserve(config_.world);
  for (std::size_t r = 0; r < config_.world; ++r) {
    ModelState state(net_.spec());
    state.init_random(config_.seed);  // identical across ranks
    states_.push_back(std::move(state));
    const bool sparse = config_.compression == GradCompression::kTopK ||
                        config_.compression == GradCompression::kRandomK;
    if (config_.error_feedback && sparse) {
      feedback_.push_back(std::make_unique<ErrorFeedback>(
          compressor_->clone(), net_.spec().param_count()));
    } else {
      feedback_.push_back(nullptr);
    }
  }
}

const ModelState& Trainer::state(std::size_t rank) const {
  LOWDIFF_ENSURE(rank < states_.size(), "rank out of range");
  return states_[rank];
}

void Trainer::set_state(const ModelState& state) {
  for (auto& s : states_) s = state.clone();
  for (auto& fb : feedback_) {
    if (fb != nullptr) fb->reset();
  }
}

double Trainer::eval_loss(std::uint64_t batch_index) const {
  std::vector<float> inputs;
  std::vector<std::uint32_t> labels;
  dataset_.batch(batch_index, 256, inputs, labels);
  return net_.forward(states_[0], inputs, labels);
}

double Trainer::eval_accuracy(std::uint64_t batch_index) const {
  std::vector<float> inputs;
  std::vector<std::uint32_t> labels;
  dataset_.batch(batch_index, 256, inputs, labels);
  return net_.accuracy(states_[0], inputs, labels);
}

TrainResult Trainer::run(std::uint64_t start_iter, std::uint64_t num_iters,
                         CheckpointStrategy* strategy,
                         LowDiffPlusStrategy* layerwise) {
  LOWDIFF_ENSURE(layerwise == nullptr || config_.rho == 0.0,
                 "layer-wise streaming requires the dense (rho = 0) regime");
  TrainResult result;
  result.losses.assign(num_iters, 0.0);
  if (num_iters == 0) return result;

  CommGroup comm(config_.world);
  const auto offsets = net_.spec().layer_offsets();
  Stopwatch wall;
  double stall_total = 0.0;

  // Rank-0 view of the iteration pipeline (resolved once; the worker loop
  // only touches the sharded handles).
  auto& reg = obs::Registry::global();
  obs::Counter& iters_total = reg.counter("trainer.iterations_total");
  obs::Histogram& compute_us = reg.histogram("trainer.compute_us");
  obs::Histogram& sync_us = reg.histogram("trainer.sync_us");
  obs::Histogram& stall_us = reg.histogram("trainer.stall_us");
  // Degraded-durability sampling: the tier layer owns this gauge (string
  // duplicated here — core cannot depend on tier); it reads 0 when no
  // replicator is in the stack, so pure-training runs are unaffected.
  obs::Gauge& durability_lag =
      reg.gauge("tier.replication.durability_lag_records");
  obs::Counter& degraded_total = reg.counter("trainer.degraded_iterations_total");
  std::uint64_t degraded_iters = 0;

  auto worker = [&](std::size_t rank) {
    if (obs::Tracer::global().enabled()) {
      obs::Tracer::global().set_thread_name("rank" + std::to_string(rank));
    }
    ModelState& state = states_[rank];
    Tensor grad(net_.spec().param_count());
    Tensor dense(net_.spec().param_count());
    std::vector<float> inputs;
    std::vector<std::uint32_t> labels;
    double stall = 0.0;

    for (std::uint64_t i = 0; i < num_iters; ++i) {
      const std::uint64_t iter = start_iter + i;

      double loss = 0.0;
      {
        LOWDIFF_TRACE_SPAN("train.compute", "train");
        Stopwatch sw;
        // Data-parallel shard: every (iteration, rank) pair gets its own
        // deterministic batch, so a recovered run replays the same stream.
        dataset_.batch(iter * config_.world + rank, config_.batch_size, inputs,
                       labels);
        grad.zero();
        loss = net_.loss_and_gradient(state, inputs, labels, grad);
        if (rank == 0) compute_us.observe(sw.elapsed_sec() * 1e6);
      }
      if (rank == 0) result.losses[i] = loss;

      // One child span per stage (train.compress, train.allreduce,
      // train.decompress, train.optim), so the trace shows which stage of
      // the sync a slow iteration spent its time in.
      obs::TraceSpan sync_span(obs::Tracer::global(), "train.sync", "train");
      Stopwatch sync_sw;
      std::shared_ptr<const CompressedGrad> payload;
      if (config_.compression == GradCompression::kTopK ||
          config_.compression == GradCompression::kRandomK) {
        // Compress (optionally error-corrected), synchronize, average.
        obs::TraceSpan compress_span("train.compress", "train");
        CompressedGrad local =
            feedback_[rank] != nullptr
                ? feedback_[rank]->compress(grad.cspan(), iter)
                : compressor_->compress(grad.cspan(), iter);
        compress_span.finish();
        obs::TraceSpan allreduce_span("train.allreduce", "train");
        CompressedGrad merged = comm.allreduce_sparse(rank, local);
        const float inv_world = 1.0f / static_cast<float>(config_.world);
        for (auto& v : merged.values) v *= inv_world;
        allreduce_span.finish();
        merged.iteration = iter;
        payload = std::make_shared<const CompressedGrad>(std::move(merged));
        obs::TraceSpan decompress_span("train.decompress", "train");
        compressor_->decompress(*payload, dense.span());
        decompress_span.finish();
        obs::TraceSpan optim_span("train.optim", "train");
        optimizer_->step(state, dense.cspan());
      } else if (config_.compression == GradCompression::kQuant8) {
        // Quantized regime: synchronize densely, quantize the synchronized
        // gradient (bit-identical on every rank), and train on the
        // *dequantized* values so recovery replays the exact update.
        obs::TraceSpan allreduce_span("train.allreduce", "train");
        comm.allreduce_sum(rank, grad.span());
        ops::scale(grad.span(), 1.0f / static_cast<float>(config_.world));
        allreduce_span.finish();
        obs::TraceSpan compress_span("train.compress", "train");
        payload = std::make_shared<const CompressedGrad>(
            compressor_->compress(grad.cspan(), iter));
        compress_span.finish();
        obs::TraceSpan decompress_span("train.decompress", "train");
        compressor_->decompress(*payload, dense.span());
        decompress_span.finish();
        obs::TraceSpan optim_span("train.optim", "train");
        optimizer_->step(state, dense.cspan());
      } else {
        obs::TraceSpan allreduce_span("train.allreduce", "train");
        comm.allreduce_sum(rank, grad.span());
        ops::scale(grad.span(), 1.0f / static_cast<float>(config_.world));
        allreduce_span.finish();
        obs::TraceSpan optim_span("train.optim", "train");
        optimizer_->step(state, grad.cspan());
        optim_span.finish();
        if (rank == 0 && (strategy != nullptr || layerwise != nullptr)) {
          // Rank 0's copy of the synchronized gradient for the strategy: a
          // checkpoint cost that W/O CKPT never pays, timed in train.sync
          // rather than in ckpt.stall.
          LOWDIFF_TRACE_SPAN("train.compress", "train");
          DenseCompressor dense_comp;
          auto wrapped = dense_comp.compress(grad.cspan(), iter);
          payload = std::make_shared<const CompressedGrad>(std::move(wrapped));
        }
      }
      sync_span.finish();
      if (rank == 0) sync_us.observe(sync_sw.elapsed_sec() * 1e6);

      if (rank == 0) {
        Stopwatch sw;
        // Span nested strictly inside the stopwatch window, so summing
        // "ckpt.stall" spans from the trace reconstructs stall_seconds.
        obs::TraceSpan stall_span(obs::Tracer::global(), "ckpt.stall", "ckpt");
        if (layerwise != nullptr) {
          // Stream per-layer chunks in reverse layer order, mirroring the
          // backward pass (Fig. 5).  The first layer emitted is the last
          // produced chunk of the iteration... reversed: layer L-1 first,
          // layer 0 last, which carries last_of_iteration.
          LOWDIFF_CHECK(payload != nullptr);
          const auto& values = payload->values;
          for (std::size_t l = net_.spec().layers.size(); l-- > 0;) {
            LowDiffPlusStrategy::GradChunk chunk;
            chunk.iteration = iter;
            chunk.offset = offsets[l];
            chunk.values.assign(values.begin() + static_cast<std::ptrdiff_t>(offsets[l]),
                                values.begin() + static_cast<std::ptrdiff_t>(offsets[l + 1]));
            chunk.last_of_iteration = (l == 0);
            layerwise->on_layer_gradient(std::move(chunk));
          }
        } else if (strategy != nullptr) {
          strategy->after_step(iter, state, payload);
        }
        stall_span.finish();
        const double stalled = sw.elapsed_sec();
        stall += stalled;
        stall_us.observe(stalled * 1e6);
        iters_total.add(1);
        if ((strategy != nullptr || layerwise != nullptr) &&
            durability_lag.value() > 0) {
          ++degraded_iters;
          degraded_total.add(1);
        }
      }
      comm.barrier();  // keep ranks in lockstep iteration-to-iteration
    }
    if (rank == 0) stall_total = stall;
  };

  std::vector<std::thread> threads;
  threads.reserve(config_.world);
  for (std::size_t r = 0; r < config_.world; ++r) {
    threads.emplace_back(worker, r);
  }
  for (auto& t : threads) t.join();

  result.wall_seconds = wall.elapsed_sec();
  result.stall_seconds = stall_total;
  result.degraded_iterations = degraded_iters;
  return result;
}

}  // namespace lowdiff
