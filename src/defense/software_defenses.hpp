// Software (training/inference-time) BFA defenses compared in Table 3:
//   * Binary weight (He et al., CVPR'20): 1-bit weights limit per-flip damage.
//   * Piece-wise clustering (He et al., CVPR'20): a regularizer pulls each
//     layer's weights toward two clusters, removing the outliers BFA exploits.
//   * Weight reconstruction (Li et al., DAC'20): inference-time clamping of
//     codes to deployment-profiled bounds neutralises large flipped weights.
//   * RA-BNN (Rakin et al., 2021): robust binary network, modelled as a
//     wider binary-weight net (see the README's stand-ins note).
//   * Model capacity scaling (x16 in the paper): built via the zoo's
//     width_mult knob.
// These carry training overhead and/or clean-accuracy loss -- the trade-off
// DNN-Defender avoids.
#pragma once

#include "attack/probe_engine.hpp"
#include "nn/dataset.hpp"
#include "nn/model.hpp"
#include "quant/quantizer.hpp"

namespace dnnd::defense::software {

// ----------------------------------------------------------------------
// Binary-weight representation + its BFA
// ----------------------------------------------------------------------

/// Binary-weight view of a model: per-layer alpha = mean|w|, weight =
/// alpha * sign. It is held as a QuantizedModel with codes +-64 at scale
/// alpha/64 and the sign bit (bit 7) as each weight's only attackable bit, so
/// a sign flip is an ordinary flip/probe: 0x40 ^ 0x80 is -64, and
/// 64 * (alpha/64) is exactly alpha. The attack surface shrinks to one bit
/// per weight.
class BinaryWeightModel final : public quant::QuantizedModel {
 public:
  explicit BinaryWeightModel(nn::Model& model);

  [[nodiscard]] float alpha(usize l) const { return layer(l).scale * 64.0f; }
};

/// Progressive bit search over sign bits, an attack::ProbeEngine::run: each
/// step ranks every layer's best sign flip by its first-order gain
/// dL = g * (-2 * alpha * sign), prices the best six layers' candidates
/// exactly and commits the one that raises the attack-batch loss most. It
/// stops when no candidate raises the loss (no first-order fallback), after
/// `max_flips` flips, or once the accuracy is <= `stop_accuracy`.
attack::SearchResult attack_binary(BinaryWeightModel& bm, const nn::Tensor& attack_x,
                                   const std::vector<u32>& attack_y, usize max_flips,
                                   double stop_accuracy);

// ----------------------------------------------------------------------
// Training-time defenses
// ----------------------------------------------------------------------

/// Fine-tunes with the piece-wise clustering penalty: each weight is pulled
/// toward the nearer of {-mu_l, +mu_l} (mu_l = mean|w| per layer) with
/// strength lambda. Returns the achieved test accuracy.
double piecewise_clustering_finetune(nn::Model& model, const nn::SplitDataset& data,
                                     double lambda, usize epochs, double lr, u64 seed);

/// Straight-through-estimator fine-tuning for binary weights: forward/backward
/// run on binarized weights, updates flow to latent float weights. Leaves the
/// model with deployed (binarized) weights and returns test accuracy.
/// Naive post-hoc binarization destroys conv nets; real binary-weight
/// defenses train the binary representation, which this reproduces.
double binary_finetune(nn::Model& model, const nn::SplitDataset& data, usize epochs,
                       double lr, u64 seed);

// ----------------------------------------------------------------------
// Inference-time defense
// ----------------------------------------------------------------------

/// Weight reconstruction: at deployment, records per-layer absolute-code
/// bounds at a percentile; apply() clamps codes back inside the bounds
/// (undoing the out-of-range values MSB flips create). The default 97th
/// percentile balances catching MSB outliers against clamping legitimate
/// large weights (with max-scaled symmetric quantization some code always
/// sits at +-127, so a loose bound would never catch anything).
class ReconstructionGuard {
 public:
  ReconstructionGuard(const quant::QuantizedModel& qm, double percentile = 0.97);

  /// Clamps all codes to the recorded bounds and re-materializes.
  /// Returns the number of corrected weights.
  usize apply(quant::QuantizedModel& qm) const;

  [[nodiscard]] i8 bound(usize layer) const { return bounds_.at(layer); }

 private:
  std::vector<i8> bounds_;
};

}  // namespace dnnd::defense::software
