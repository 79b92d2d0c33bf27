#pragma once

/// \file model_state.h
/// The paper's model state M_t = (x_t, o_t): flat fp32 parameter vector plus
/// Adam first/second moments, with per-layer views derived from the spec.
///
/// A full checkpoint serializes exactly this object (3Ψ floats + step
/// counter); a differential checkpoint never needs it (Finding 1).

#include <cstdint>
#include <memory>
#include <span>

#include "model/model_spec.h"
#include "tensor/tensor.h"

namespace lowdiff {

class ModelState {
 public:
  explicit ModelState(ModelSpec spec);

  const ModelSpec& spec() const { return spec_; }
  std::size_t param_count() const { return params_.size(); }

  Tensor& params() { return params_; }
  const Tensor& params() const { return params_; }
  Tensor& moment1() { return m_; }
  const Tensor& moment1() const { return m_; }
  Tensor& moment2() { return v_; }
  const Tensor& moment2() const { return v_; }

  /// Number of optimizer steps applied so far (Adam bias correction state).
  std::uint64_t step() const { return step_; }
  void set_step(std::uint64_t step) { step_ = step; }

  /// Parameter slice of layer `i` (forward order).
  std::span<float> layer_params(std::size_t i);
  std::span<const float> layer_params(std::size_t i) const;

  std::size_t layer_offset(std::size_t i) const;
  std::size_t layer_size(std::size_t i) const;

  /// Deterministically initializes parameters (He-style scale per layer) so
  /// two workers constructed with the same seed agree bit-for-bit.
  void init_random(std::uint64_t seed);

  /// Deep copy (snapshot semantics).
  ModelState clone() const;

  /// Bitwise equality of the complete state — the recovery correctness
  /// criterion used throughout the tests.
  bool bit_equal(const ModelState& other) const;

  /// Bytes of the full state (params + both moments), excluding metadata.
  std::size_t byte_size() const { return 3 * params_.byte_size(); }

 private:
  ModelSpec spec_;
  std::vector<std::size_t> offsets_;
  Tensor params_;
  Tensor m_;
  Tensor v_;
  std::uint64_t step_ = 0;
};

}  // namespace lowdiff
