// Dense float32 tensor with row-major layout. Shapes follow NCHW for images
// and {N, F} for fully-connected activations. This is deliberately a plain
// value type: layers own their parameter tensors and cache activations as
// Tensor values.
#pragma once

#include <vector>

#include "sys/rng.hpp"
#include "sys/types.hpp"

namespace dnnd::nn {

class Tensor {
 public:
  Tensor() = default;
  /// Allocates zero-initialised storage of the given shape.
  explicit Tensor(std::vector<usize> shape);

  static Tensor zeros(std::vector<usize> shape);
  static Tensor full(std::vector<usize> shape, float value);
  /// He-normal initialisation: N(0, sqrt(2 / fan_in)).
  static Tensor he_normal(std::vector<usize> shape, usize fan_in, sys::Rng& rng);

  [[nodiscard]] const std::vector<usize>& shape() const { return shape_; }
  [[nodiscard]] usize size() const { return data_.size(); }
  /// Allocated storage in elements (>= size); the workspace zero-allocation
  /// tests pin this across steady-state iterations.
  [[nodiscard]] usize capacity() const { return data_.capacity(); }
  [[nodiscard]] usize dim(usize i) const { return shape_.at(i); }
  [[nodiscard]] usize rank() const { return shape_.size(); }

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

  float& operator[](usize i) { return data_[i]; }
  float operator[](usize i) const { return data_[i]; }

  /// 4-D accessor for NCHW tensors (no bounds checks in release).
  float& at4(usize n, usize c, usize h, usize w);
  [[nodiscard]] float at4(usize n, usize c, usize h, usize w) const;

  /// 2-D accessor for {N, F} tensors.
  float& at2(usize n, usize f) { return data_[n * shape_[1] + f]; }
  [[nodiscard]] float at2(usize n, usize f) const { return data_[n * shape_[1] + f]; }

  /// Reinterprets the same storage under a new shape (sizes must match).
  [[nodiscard]] Tensor reshaped(std::vector<usize> new_shape) const;

  /// Reshapes in place without initialising the data. Storage capacity is
  /// retained on shrink and only grows monotonically, so resizing to a
  /// previously seen size never reallocates -- the property the Workspace
  /// arena's zero-allocation steady state relies on.
  void resize(const std::vector<usize>& new_shape);

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Elementwise in-place: this += other (shapes must match).
  void add_(const Tensor& other);

  [[nodiscard]] float min() const;
  [[nodiscard]] float max() const;
  [[nodiscard]] float abs_max() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double l2_norm() const;

 private:
  std::vector<usize> shape_;
  std::vector<float> data_;
};

}  // namespace dnnd::nn
