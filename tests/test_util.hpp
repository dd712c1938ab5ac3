// Shared helpers for the test suite: small trained models and datasets,
// built once per process and cached (training even a tiny MLP takes ~100 ms;
// many tests need one).
#pragma once

#include <memory>

#include "models/model_zoo.hpp"
#include "nn/gemm.hpp"
#include "nn/simd.hpp"
#include "nn/trainer.hpp"
#include "quant/quantizer.hpp"

namespace dnnd::testutil {

/// Restores the process-global GEMM team setting on scope exit, so team-size
/// sweeps cannot leak into later tests. Now the library-side RAII guard the
/// campaign runner itself uses (nn/gemm.hpp).
using ThreadsGuard = nn::gemm::ThreadsGuard;

/// Restores the process-global force-scalar SIMD override on scope exit, so
/// kernel-selection sweeps cannot leak into later tests.
struct SimdGuard {
  int saved_scalar = nn::simd::scalar_override();
  ~SimdGuard() { nn::simd::set_scalar_override(saved_scalar); }
};

/// A small, easy dataset for attack tests: 4 classes, 1x8x8, low noise.
inline const nn::SplitDataset& easy_data() {
  static const nn::SplitDataset data = [] {
    nn::SynthSpec spec;
    spec.num_classes = 4;
    spec.train_per_class = 80;
    spec.test_per_class = 30;
    spec.channels = 1;
    spec.height = 8;
    spec.width = 8;
    spec.noise = 0.8;
    spec.max_shift = 1;
    spec.seed = 1234;
    return nn::make_synthetic(spec);
  }();
  return data;
}

/// A trained MLP on easy_data() -- fresh copy per call (tests mutate models).
inline std::unique_ptr<nn::Model> trained_mlp() {
  auto model = models::make_test_mlp(64, 24, 4, /*seed=*/7);
  nn::TrainConfig cfg;
  cfg.epochs = 5;
  cfg.batch_size = 32;
  nn::train(*model, easy_data(), cfg);
  return model;
}

/// Test accuracy of a freshly-trained MLP (cached; used for baselines).
inline double trained_mlp_accuracy() {
  static const double acc = [] {
    auto m = trained_mlp();
    return nn::evaluate(*m, easy_data().test);
  }();
  return acc;
}

}  // namespace dnnd::testutil
