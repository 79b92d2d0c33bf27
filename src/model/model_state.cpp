#include "model/model_state.h"

#include <cmath>

#include "common/rng.h"
#include "tensor/ops.h"

namespace lowdiff {

ModelState::ModelState(ModelSpec spec)
    : spec_(std::move(spec)),
      offsets_(spec_.layer_offsets()),
      params_(spec_.param_count()),
      m_(spec_.param_count()),
      v_(spec_.param_count()) {}

std::span<float> ModelState::layer_params(std::size_t i) {
  return params_.span().subspan(layer_offset(i), layer_size(i));
}

std::span<const float> ModelState::layer_params(std::size_t i) const {
  return params_.span().subspan(layer_offset(i), layer_size(i));
}

std::size_t ModelState::layer_offset(std::size_t i) const {
  LOWDIFF_ENSURE(i < spec_.layers.size(), "layer index out of range");
  return offsets_[i];
}

std::size_t ModelState::layer_size(std::size_t i) const {
  LOWDIFF_ENSURE(i < spec_.layers.size(), "layer index out of range");
  return offsets_[i + 1] - offsets_[i];
}

void ModelState::init_random(std::uint64_t seed) {
  for (std::size_t i = 0; i < spec_.layers.size(); ++i) {
    SplitMix64 sm(seed ^ (0x9E37ull * (i + 1)));
    Xoshiro256 rng(sm.next());
    const auto& shape = spec_.layers[i].shape;
    // He initialization: stddev = sqrt(2 / fan_in); 1-D tensors get zeros
    // (biases / norm offsets) which matches common practice.
    if (shape.size() <= 1) {
      for (auto& v : layer_params(i)) v = 0.0f;
    } else {
      std::size_t fan_in = 1;
      for (std::size_t d = 1; d < shape.size(); ++d) fan_in *= shape[d];
      const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
      ops::fill_normal(layer_params(i), rng, stddev);
    }
  }
  m_.zero();
  v_.zero();
  step_ = 0;
}

ModelState ModelState::clone() const {
  ModelState out(spec_);
  ops::copy(params_.span(), out.params_.span());
  ops::copy(m_.span(), out.m_.span());
  ops::copy(v_.span(), out.v_.span());
  out.step_ = step_;
  return out;
}

bool ModelState::bit_equal(const ModelState& other) const {
  return step_ == other.step_ && ops::bit_equal(params_.span(), other.params_.span()) &&
         ops::bit_equal(m_.span(), other.m_.span()) &&
         ops::bit_equal(v_.span(), other.v_.span());
}

}  // namespace lowdiff
