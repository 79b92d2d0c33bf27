#pragma once

/// \file optimizer.h
/// Optimizer interface.  An optimizer step is the paper's Eq. (1):
///   M_{t+1} = M_t + Opt(G_t)
/// where M includes both parameters and optimizer moments.  Steps must be
/// *bitwise deterministic*: the recovery process replays reused gradients
/// through the same optimizer and must land on the identical model state
/// (Finding 1), which the integration tests assert bit-for-bit.

#include <memory>
#include <span>
#include <string>

#include "model/model_state.h"

namespace lowdiff {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one dense update.  `grad` must have state.param_count()
  /// elements.  Mutates parameters, moments, and the step counter.
  virtual void step(ModelState& state, std::span<const float> grad) const = 0;

  /// Applies the update to the contiguous slice [offset, offset+grad.size())
  /// of the parameter vector only.  Used by the layer-wise CPU replica
  /// update of LowDiff+ (Algorithm 2 line 12), which applies gradients per
  /// layer as they stream in, and by parallel recovery, which splits each
  /// replayed step into coordinate slices.  The step counter is NOT
  /// advanced — the caller advances it once per iteration via
  /// finish_partial_step().
  ///
  /// A call reads and writes only its own slice of the parameters and
  /// moments (and reads the step counter), so calls on disjoint slices of
  /// one state may run concurrently.
  virtual void step_slice(ModelState& state, std::size_t offset,
                          std::span<const float> grad) const = 0;

  /// Advances the step counter after a set of step_slice() calls covering
  /// the whole parameter vector.  step_slice over all slices followed by
  /// finish_partial_step() must equal one dense step() bit-for-bit.
  void finish_partial_step(ModelState& state) const {
    state.set_step(state.step() + 1);
  }

  virtual std::string name() const = 0;
  virtual std::unique_ptr<Optimizer> clone() const = 0;
};

}  // namespace lowdiff
