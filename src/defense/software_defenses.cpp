#include "defense/software_defenses.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "nn/trainer.hpp"

namespace dnnd::defense::software {

// ------------------------------------------------------ BinaryWeightModel --

BinaryWeightModel::BinaryWeightModel(nn::Model& model) : model_(model) {
  for (auto& p : model_.quantizable_params()) {
    BinLayer bl;
    bl.value = p.value;
    bl.grad = p.grad;
    double mean_abs = 0.0;
    for (usize i = 0; i < p.value->size(); ++i) mean_abs += std::fabs((*p.value)[i]);
    mean_abs /= static_cast<double>(p.value->size() == 0 ? 1 : p.value->size());
    bl.alpha = static_cast<float>(mean_abs);
    bl.sign.resize(p.value->size());
    for (usize i = 0; i < p.value->size(); ++i) {
      bl.sign[i] = (*p.value)[i] >= 0.0f ? i8{1} : i8{-1};
    }
    layers_.push_back(std::move(bl));
  }
  materialize();
}

u64 BinaryWeightModel::total_bits() const {
  u64 n = 0;
  for (const auto& l : layers_) n += l.sign.size();
  return n;
}

bool BinaryWeightModel::is_positive(usize layer, usize index) const {
  return layers_.at(layer).sign.at(index) > 0;
}

void BinaryWeightModel::flip(usize layer, usize index) {
  BinLayer& l = layers_.at(layer);
  l.sign.at(index) = static_cast<i8>(-l.sign[index]);
  (*l.value)[index] = l.alpha * static_cast<float>(l.sign[index]);
}

void BinaryWeightModel::materialize() {
  for (auto& l : layers_) {
    for (usize i = 0; i < l.sign.size(); ++i) {
      (*l.value)[i] = l.alpha * static_cast<float>(l.sign[i]);
    }
  }
}

BinaryAttackResult attack_binary(BinaryWeightModel& bm, const nn::Tensor& attack_x,
                                 const std::vector<u32>& attack_y, usize max_flips,
                                 double stop_accuracy) {
  constexpr usize kLayersEvaluated = 6;  // exact-loss check of the best n layers by gain
  BinaryAttackResult result;
  nn::Model& model = bm.model();
  result.final_accuracy = model.accuracy(attack_x, attack_y);
  for (usize flip = 0; flip < max_flips; ++flip) {
    model.zero_grad();
    model.loss_and_grad(attack_x, attack_y);
    // Per-layer best sign flip by first-order gain g * (-2 alpha s).
    struct Cand {
      usize layer, index;
      double gain;
    };
    std::vector<Cand> cands;
    for (usize l = 0; l < bm.num_layers(); ++l) {
      const nn::Tensor& g = bm.grad(l);
      double best_gain = 0.0;
      usize best_idx = 0;
      for (usize i = 0; i < bm.layer_size(l); ++i) {
        const double s = bm.is_positive(l, i) ? 1.0 : -1.0;
        const double gain = g[i] * (-2.0 * bm.alpha(l) * s);
        if (gain > best_gain) {
          best_gain = gain;
          best_idx = i;
        }
      }
      if (best_gain > 0.0) cands.push_back({l, best_idx, best_gain});
    }
    if (cands.empty()) break;
    std::sort(cands.begin(), cands.end(),
              [](const Cand& a, const Cand& b) { return a.gain > b.gain; });
    if (cands.size() > kLayersEvaluated) cands.resize(kLayersEvaluated);
    const double base_loss = model.loss(attack_x, attack_y);
    double best_loss = base_loss;
    i64 best = -1;
    for (usize c = 0; c < cands.size(); ++c) {
      bm.flip(cands[c].layer, cands[c].index);
      const double loss = model.loss(attack_x, attack_y);
      bm.flip(cands[c].layer, cands[c].index);
      if (loss > best_loss) {
        best_loss = loss;
        best = static_cast<i64>(c);
      }
    }
    if (best < 0) break;
    bm.flip(cands[static_cast<usize>(best)].layer, cands[static_cast<usize>(best)].index);
    result.flips += 1;
    result.final_accuracy = model.accuracy(attack_x, attack_y);
    if (result.final_accuracy <= stop_accuracy) {
      result.reached_stop = true;
      break;
    }
  }
  return result;
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
