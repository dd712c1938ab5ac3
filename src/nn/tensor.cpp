#include "nn/tensor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace dnnd::nn {

namespace {
usize shape_size(const std::vector<usize>& shape) {
  usize n = 1;
  for (usize d : shape) n *= d;
  return n;
}
}  // namespace

Tensor::Tensor(std::vector<usize> shape)
    : shape_(std::move(shape)), data_(shape_size(shape_), 0.0f) {}

Tensor Tensor::zeros(std::vector<usize> shape) { return Tensor(std::move(shape)); }

Tensor Tensor::full(std::vector<usize> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::he_normal(std::vector<usize> shape, usize fan_in, sys::Rng& rng) {
  Tensor t(std::move(shape));
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in == 0 ? 1 : fan_in));
  for (usize i = 0; i < t.size(); ++i) t[i] = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

float& Tensor::at4(usize n, usize c, usize h, usize w) {
  assert(rank() == 4);
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

float Tensor::at4(usize n, usize c, usize h, usize w) const {
  assert(rank() == 4);
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

void Tensor::resize(const std::vector<usize>& new_shape) {
  shape_ = new_shape;
  data_.resize(shape_size(shape_));
}

Tensor Tensor::reshaped(std::vector<usize> new_shape) const {
  assert(shape_size(new_shape) == size());
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  return t;
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Tensor::add_(const Tensor& other) {
  assert(other.size() == size());
  for (usize i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

float Tensor::min() const {
  return data_.empty() ? 0.0f : *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  return data_.empty() ? 0.0f : *std::max_element(data_.begin(), data_.end());
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Tensor::sum() const { return std::accumulate(data_.begin(), data_.end(), 0.0); }

double Tensor::l2_norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

}  // namespace dnnd::nn
