#pragma once

/// \file lowdiff.h
/// Umbrella header: the public API of the LowDiff library.
///
/// Layering (bottom-up):
///   common/   — error handling, RNG, CRC, thread pool, buffers
///   tensor/   — dense fp32 tensors and elementwise kernels
///   model/    — model specs, the paper's model zoo, states, MLP, datasets
///   optim/    — Adam / SGD with slice-wise (layer-wise) application
///   compress/ — top-k / random-k / quant8 gradient compression + merging
///   queue/    — the zero-copy Reusing Queue
///   storage/  — backends, CRC-framed serialization, async persistence
///   comm/     — in-process collectives + network cost models
///   sim/      — cluster-scale analytic timelines and failure injection
///   core/     — checkpoint store, strategies (LowDiff, LowDiff+, and the
///               baselines), recovery engines, Eq. (3)/(5) config tuning,
///               and the live training engine
///   tier/     — tiered placement, k-way replication across failure
///               domains, tier-aware recovery, quorum repair

#include "common/error.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/units.h"

#include "tensor/ops.h"
#include "tensor/tensor.h"

#include "model/dataset.h"
#include "model/grad_gen.h"
#include "model/mlp.h"
#include "model/model_state.h"
#include "model/zoo.h"

#include "optim/adam.h"
#include "optim/sgd.h"

#include "compress/compressor.h"
#include "compress/dense.h"
#include "compress/error_feedback.h"
#include "compress/merge.h"
#include "compress/quant8.h"
#include "compress/randomk.h"
#include "compress/topk.h"

#include "queue/reusing_queue.h"

#include "storage/async_writer.h"
#include "storage/atomic_commit.h"
#include "storage/bandwidth.h"
#include "storage/fault_injection.h"
#include "storage/file_storage.h"
#include "storage/mem_storage.h"
#include "storage/serializer.h"
#include "storage/stacking.h"
#include "storage/throttled.h"

#include "comm/comm_group.h"
#include "comm/network_model.h"

#include "sim/cluster.h"
#include "sim/failure.h"
#include "sim/run_sim.h"
#include "sim/strategy_model.h"
#include "sim/workload.h"

#include "core/checkpoint_store.h"
#include "core/config_optimizer.h"
#include "core/recovery.h"
#include "core/strategies.h"
#include "core/trainer.h"

#include "tier/placement.h"
#include "tier/replicator.h"
#include "tier/tier_recovery.h"
#include "tier/topology.h"
