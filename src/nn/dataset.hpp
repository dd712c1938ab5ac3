// Deterministic synthetic image-classification datasets.
//
// The paper evaluates on CIFAR-10 and ImageNet, which are unavailable
// offline; the README's stand-ins note describes the substitution. Each
// class is a smooth random template (low-frequency pattern upsampled
// bilinearly); samples are amplitude-jittered, spatially-shifted, noisy
// draws of their class template.
// Small conv nets reach >90% accuracy on these in seconds of single-core
// training, while remaining non-trivial (noise + shift defeat nearest-mean
// shortcuts), so BFA's loss landscape dynamics are preserved.
#pragma once

#include <vector>

#include "nn/tensor.hpp"

namespace dnnd::nn {

/// Generation parameters for a synthetic dataset.
struct SynthSpec {
  usize num_classes = 10;
  usize train_per_class = 200;
  usize test_per_class = 40;
  usize channels = 3;
  usize height = 12;
  usize width = 12;
  double noise = 2.2;             ///< additive Gaussian noise stddev
  double amplitude_jitter = 0.2;  ///< sample amplitude in [1-j, 1+j]
  u32 max_shift = 1;              ///< uniform spatial shift in [-s, s]
  u64 seed = 42;

  /// CIFAR-10-like stand-in: 10 classes.
  static SynthSpec cifar10_like();
  /// ImageNet-like stand-in: more classes, slightly noisier.
  static SynthSpec imagenet_like();
};

/// A labelled image set, images in one NCHW tensor.
struct Dataset {
  Tensor images;            ///< {N, C, H, W}
  std::vector<u32> labels;  ///< N entries in [0, num_classes)
  usize num_classes = 0;

  [[nodiscard]] usize size() const { return labels.size(); }

  /// Copies the selected samples into a batch tensor + label vector.
  [[nodiscard]] std::pair<Tensor, std::vector<u32>> gather(
      const std::vector<usize>& indices) const;

  /// gather() into caller-owned storage: `batch` is resized to
  /// {indices.size(), C, H, W} (capacity is monotonic, so a reused batch
  /// tensor stops allocating once it has seen the largest batch) and `y` to
  /// indices.size(). The serving loop forms thousands of small batches; this
  /// keeps the per-batch heap traffic out of the latency path.
  void gather_into(const std::vector<usize>& indices, Tensor& batch,
                   std::vector<u32>& y) const;

  /// First `n` samples (deterministic "sample batch" for attacks, mirroring
  /// the paper's 128-image attack batch).
  [[nodiscard]] std::pair<Tensor, std::vector<u32>> head(usize n) const;
};

/// Train/test split produced by one generation pass.
struct SplitDataset {
  Dataset train;
  Dataset test;
  SynthSpec spec;
};

/// Generates the dataset for `spec` (fully deterministic in spec.seed).
SplitDataset make_synthetic(const SynthSpec& spec);

}  // namespace dnnd::nn
