// Shared helpers for the test suite: small trained models and datasets,
// built once per process and cached (training even a tiny MLP takes ~100 ms;
// many tests need one).
#pragma once

#include <memory>
#include <string>

#include "attack/probe_engine.hpp"
#include "models/model_zoo.hpp"
#include "nn/gemm.hpp"
#include "nn/simd.hpp"
#include "nn/trainer.hpp"
#include "quant/quantizer.hpp"
#include "sys/rng.hpp"

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

/// The measurement after a run's last committed flip (`initial` without one).
inline const attack::ProbeMeasurement& last(const attack::SearchResult& res) {
  return res.steps.empty() ? res.initial : res.steps.back().best;
}

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

/// Mutant `i` of a document for the loader robustness tests, drawn from
/// `rng`: by i mod 3, a truncation, one to four bytes flipped by a nonzero
/// mask, or a span of the document spliced over (or into) another spot.
inline std::string seeded_mutant(const std::string& doc, usize i, sys::Rng& rng) {
  std::string m = doc;
  const usize n = m.size();
  switch (i % 3) {
    case 0:
      m.resize(rng.uniform(n));
      break;
    case 1:
      for (u64 f = 1 + rng.uniform(4); f > 0; --f) {
        m[rng.uniform(n)] ^= static_cast<char>(1 + rng.uniform(255));
      }
      break;
    default: {
      const std::string span = m.substr(rng.uniform(n), 1 + rng.uniform(64));
      m.replace(rng.uniform(n), rng.uniform(span.size() + 1), span);
      break;
    }
  }
  return m;
}

}  // namespace dnnd::testutil
