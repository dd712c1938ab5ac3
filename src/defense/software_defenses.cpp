#include "defense/software_defenses.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "nn/trainer.hpp"

namespace dnnd::defense::software {

// ------------------------------------------------------ BinaryWeightModel --

namespace {

/// alpha = mean|w|; codes +-64 by sign at scale alpha/64, sign bit only.
void code_binary(const nn::Tensor& w, quant::QuantizedLayer& l) {
  double mean_abs = 0.0;
  for (usize i = 0; i < w.size(); ++i) mean_abs += std::fabs(w[i]);
  mean_abs /= static_cast<double>(w.size() == 0 ? 1 : w.size());
  l.scale = static_cast<float>(mean_abs) / 64.0f;
  l.q.resize(w.size());
  for (usize i = 0; i < w.size(); ++i) l.q[i] = w[i] >= 0.0f ? i8{64} : i8{-64};
  l.lowest_bit = 7;
}

}  // namespace

BinaryWeightModel::BinaryWeightModel(nn::Model& model)
    : quant::QuantizedModel(model, code_binary) {}

attack::SearchResult attack_binary(BinaryWeightModel& bm, const nn::Tensor& attack_x,
                                   const std::vector<u32>& attack_y, usize max_flips,
                                   double stop_accuracy) {
  attack::UntargetedCeObjective objective(/*allow_fallback=*/false);
  attack::ProbeEngine engine(bm, attack_x, attack_y, objective,
                             {/*candidates_per_layer=*/1, /*layers_evaluated=*/6});
  return engine.run(
      max_flips,
      [stop_accuracy](const attack::ProbeMeasurement& m) { return m.accuracy <= stop_accuracy; });
}

// ------------------------------------------- piecewise clustering finetune --

double piecewise_clustering_finetune(nn::Model& model, const nn::SplitDataset& data,
                                     double lambda, usize epochs, double lr, u64 seed) {
  nn::SgdConfig sgd;
  sgd.lr = lr;
  sgd.momentum = 0.9;
  sgd.weight_decay = 0.0;  // the clustering term replaces weight decay
  nn::SgdOptimizer opt(model, sgd);
  sys::Rng rng(seed);
  const usize batch = 32;
  const usize n = data.train.size();
  std::vector<usize> order(n);
  std::iota(order.begin(), order.end(), usize{0});
  for (usize epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    for (usize start = 0; start + batch <= n; start += batch) {
      std::vector<usize> idx(order.begin() + static_cast<isize>(start),
                             order.begin() + static_cast<isize>(start + batch));
      auto [x, y] = data.train.gather(idx);
      model.zero_grad();
      model.loss_and_grad(x, y, /*train_mode=*/true);
      // Add the piece-wise clustering gradient: pull each weight toward the
      // nearer of {-mu, +mu}.
      for (auto& p : model.quantizable_params()) {
        double mu = 0.0;
        for (usize i = 0; i < p.value->size(); ++i) mu += std::fabs((*p.value)[i]);
        mu /= static_cast<double>(p.value->size() == 0 ? 1 : p.value->size());
        for (usize i = 0; i < p.value->size(); ++i) {
          const float w = (*p.value)[i];
          const float target = w >= 0.0f ? static_cast<float>(mu) : static_cast<float>(-mu);
          (*p.grad)[i] += static_cast<float>(lambda) * (w - target);
        }
      }
      opt.step();
    }
  }
  return nn::evaluate(model, data.test);
}

double binary_finetune(nn::Model& model, const nn::SplitDataset& data, usize epochs,
                       double lr, u64 seed) {
  nn::SgdConfig sgd;
  sgd.lr = lr;
  sgd.momentum = 0.9;
  sgd.weight_decay = 0.0;
  nn::SgdOptimizer opt(model, sgd);
  sys::Rng rng(seed);
  const usize batch = 32;
  const usize n = data.train.size();
  std::vector<usize> order(n);
  std::iota(order.begin(), order.end(), usize{0});
  auto quantizable = model.quantizable_params();
  std::vector<nn::Tensor> latent;
  for (auto& p : quantizable) latent.push_back(*p.value);
  auto binarize_from_latent = [&]() {
    for (usize l = 0; l < quantizable.size(); ++l) {
      double mean_abs = 0.0;
      for (usize i = 0; i < latent[l].size(); ++i) mean_abs += std::fabs(latent[l][i]);
      mean_abs /= static_cast<double>(latent[l].size() == 0 ? 1 : latent[l].size());
      for (usize i = 0; i < latent[l].size(); ++i) {
        (*quantizable[l].value)[i] =
            static_cast<float>(latent[l][i] >= 0.0f ? mean_abs : -mean_abs);
      }
    }
  };
  for (usize epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    for (usize start = 0; start + batch <= n; start += batch) {
      std::vector<usize> idx(order.begin() + static_cast<isize>(start),
                             order.begin() + static_cast<isize>(start + batch));
      auto [x, y] = data.train.gather(idx);
      binarize_from_latent();          // forward/backward at binary weights
      model.zero_grad();
      model.loss_and_grad(x, y, /*train_mode=*/true);
      for (usize l = 0; l < quantizable.size(); ++l) {
        *quantizable[l].value = latent[l];  // straight-through: step the latent
      }
      opt.step();
      for (usize l = 0; l < quantizable.size(); ++l) latent[l] = *quantizable[l].value;
    }
  }
  binarize_from_latent();  // deploy binary weights
  return nn::evaluate(model, data.test);
}

// ------------------------------------------------------ ReconstructionGuard --

ReconstructionGuard::ReconstructionGuard(const quant::QuantizedModel& qm, double percentile) {
  for (usize l = 0; l < qm.num_layers(); ++l) {
    const auto& layer = qm.layer(l);
    std::vector<i32> mags;
    mags.reserve(layer.size());
    for (i8 q : layer.q) mags.push_back(std::abs(static_cast<i32>(q)));
    std::sort(mags.begin(), mags.end());
    const usize k = std::min<usize>(
        mags.size() - 1,
        static_cast<usize>(percentile * static_cast<double>(mags.size())));
    bounds_.push_back(static_cast<i8>(std::max<i32>(1, mags.empty() ? 127 : mags[k])));
  }
}

usize ReconstructionGuard::apply(quant::QuantizedModel& qm) const {
  assert(bounds_.size() == qm.num_layers());
  usize corrected = 0;
  for (usize l = 0; l < qm.num_layers(); ++l) {
    const i32 bound = bounds_[l];
    auto& layer = qm.layer(l);
    for (usize i = 0; i < layer.size(); ++i) {
      const i32 q = layer.q[i];
      if (q > bound || q < -bound) {
        qm.set_q(l, i, static_cast<i8>(std::clamp<i32>(q, -bound, bound)));
        ++corrected;
      }
    }
  }
  return corrected;
}

}  // namespace dnnd::defense::software
