#include "quant/quantizer.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dnnd::quant {

namespace detail {

void validate_bit_key_bounds(usize layer_count, usize max_layer_size) {
  if (layer_count > kMaxKeyLayers) {
    throw std::length_error("BitLocation::key(): " + std::to_string(layer_count) +
                            " quantized layers exceeds the 2^20 layer-index field");
  }
  if (max_layer_size > kMaxKeyIndex) {
    throw std::length_error("BitLocation::key(): layer of " +
                            std::to_string(max_layer_size) +
                            " weights exceeds the 2^41 weight-index field");
  }
}

}  // namespace detail

namespace {

/// One weight's float value from its code -- the single materialization
/// arithmetic everything (full pass, flip, restore) shares.
inline float dequant(i8 q, float scale) { return static_cast<float>(q) * scale; }

/// Symmetric 8-bit coding: scale max|W| / 127, codes round(W / scale).
void code_8bit(const nn::Tensor& w, QuantizedLayer& l) {
  const float amax = w.abs_max();
  l.scale = amax > 0.0f ? amax / 127.0f : 1.0f;
  l.q.resize(w.size());
  for (usize i = 0; i < l.q.size(); ++i) {
    const long r = std::lround(w[i] / l.scale);
    l.q[i] = static_cast<i8>(std::clamp<long>(r, -128, 127));
  }
}

}  // namespace

QuantizedModel::QuantizedModel(nn::Model& model) : QuantizedModel(model, code_8bit) {}

QuantizedModel::QuantizedModel(nn::Model& model, LayerCoder coder) : model_(model) {
  for (auto& p : model_.quantizable_params()) {
    QuantizedLayer ql;
    ql.name = p.name;
    ql.value = p.value;
    ql.grad = p.grad;
    ql.net_layer = p.top_layer;
    coder(*p.value, ql);
    // Both Dense ({out, in}) and Conv2d ({oc, ic, k, k}) present as a
    // row-major code matrix with dim(0) rows.
    ql.cols = ql.q.size() / p.value->dim(0);
    layers_.push_back(std::move(ql));
  }
  usize max_layer_size = 0;
  for (const auto& l : layers_) max_layer_size = std::max(max_layer_size, l.size());
  detail::validate_bit_key_bounds(layers_.size(), max_layer_size);
  materialize();
}

u64 QuantizedModel::total_weights() const {
  u64 n = 0;
  for (const auto& l : layers_) n += l.size();
  return n;
}

u64 QuantizedModel::total_bits() const {
  u64 n = 0;
  for (const auto& l : layers_) n += static_cast<u64>(l.size()) * (8 - l.lowest_bit);
  return n;
}

void QuantizedModel::materialize() {
  for (auto& l : layers_) {
    for (usize i = 0; i < l.q.size(); ++i) {
      (*l.value)[i] = dequant(l.q[i], l.scale);
    }
  }
  model_.invalidate_from(0);
}

void QuantizedModel::flip(const BitLocation& loc) {
  QuantizedLayer& l = layers_.at(loc.layer);
  assert(loc.index < l.size());
  const i8 code = flip_bit_value(l.q[loc.index], loc.bit);
  l.q[loc.index] = code;
  (*l.value)[loc.index] = dequant(code, l.scale);
  // Keep the incremental-forward cache honest: activations computed from the
  // pre-flip weight are stale from this layer on.
  model_.invalidate_from(l.net_layer);
}

const nn::Tensor& QuantizedModel::probe(const BitLocation& loc) {
  QuantizedLayer& l = layers_.at(loc.layer);
  assert(loc.index < l.size());
  float& weight = (*l.value)[loc.index];
  const i8 code = l.q[loc.index];
  const float value = weight;
  auto set = [&](i8 c, float v) {
    l.q[loc.index] = c;
    weight = v;
  };
  const i8 flipped = flip_bit_value(code, loc.bit);
  set(flipped, dequant(flipped, l.scale));
  const nn::Tensor* logits = nullptr;
  try {
    logits = &model_.probe_row(l.net_layer, loc.index / l.cols);
  } catch (...) {
    set(code, value);
    throw;
  }
  set(code, value);
  return *logits;
}

i8 QuantizedModel::get_q(usize layer, usize index) const {
  return layers_.at(layer).q.at(index);
}

void QuantizedModel::set_q(usize layer, usize index, i8 code) {
  QuantizedLayer& l = layers_.at(layer);
  if (l.q.at(index) == code) return;  // unchanged: floats and cache stay valid
  l.q[index] = code;
  (*l.value)[index] = dequant(code, l.scale);
  model_.invalidate_from(l.net_layer);
}

std::vector<std::vector<i8>> QuantizedModel::snapshot() const {
  std::vector<std::vector<i8>> snap;
  snap.reserve(layers_.size());
  for (const auto& l : layers_) snap.push_back(l.q);
  return snap;
}

void QuantizedModel::restore(const std::vector<std::vector<i8>>& snap) {
  assert(snap.size() == layers_.size());
  for (usize i = 0; i < layers_.size(); ++i) {
    assert(snap[i].size() == layers_[i].q.size());
    for (usize j = 0; j < layers_[i].q.size(); ++j) {
      set_q(i, j, snap[i][j]);  // no-op (no invalidation) for unchanged codes
    }
  }
}

u64 QuantizedModel::hamming_distance(const std::vector<std::vector<i8>>& snap) const {
  assert(snap.size() == layers_.size());
  u64 dist = 0;
  for (usize i = 0; i < layers_.size(); ++i) {
    for (usize j = 0; j < layers_[i].q.size(); ++j) {
      dist += std::popcount(static_cast<u8>(layers_[i].q[j] ^ snap[i][j]));
    }
  }
  return dist;
}

}  // namespace dnnd::quant
