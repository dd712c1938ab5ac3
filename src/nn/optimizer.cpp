#include "nn/optimizer.hpp"

namespace dnnd::nn {

SgdOptimizer::SgdOptimizer(Model& model, SgdConfig cfg) : model_(model), cfg_(cfg) {
  for (auto& p : model_.params()) velocity_.emplace_back(p.value->shape());
}

void SgdOptimizer::step() {
  auto params = model_.params();
  for (usize i = 0; i < params.size(); ++i) {
    Tensor& w = *params[i].value;
    const Tensor& g = *params[i].grad;
    Tensor& v = velocity_[i];
    const float lr = static_cast<float>(cfg_.lr);
    const float mu = static_cast<float>(cfg_.momentum);
    // Weight decay applies to weights only, not biases/affine params.
    const float wd = params[i].quantizable ? static_cast<float>(cfg_.weight_decay) : 0.0f;
    for (usize j = 0; j < w.size(); ++j) {
      v[j] = mu * v[j] - lr * (g[j] + wd * w[j]);
      w[j] += v[j];
    }
  }
  // Direct weight mutation: mark cached activations stale, so incremental
  // inference never reads pre-step state.
  model_.invalidate_from(0);
}

}  // namespace dnnd::nn
