// Complete white-box adaptive attack (paper Sec. 5.2): the attacker knows
// DNN-Defender is present, probes through every Secured Bit without success,
// then adapts the progressive search to flip additional, unprotected bits.
// Produces the accuracy-vs-(SB + extra flips) curves of Fig. 9.
#pragma once

#include "attack/bfa.hpp"

namespace dnnd::attack {

struct AdaptiveAttackConfig {
  usize max_additional_flips = 100;  ///< extra flips beyond the secured set
  usize measure_every = 20;          ///< accuracy sampling period (x-axis step)
};

struct AdaptiveAttackResult {
  usize secured_bits = 0;        ///< size of the set the attacker burned through
  /// Accuracy on the evaluation set at SB + k*measure_every additional flips
  /// (index 0 = after exhausting the secured set with zero landed flips).
  std::vector<double> accuracy_trace;
  std::vector<quant::BitLocation> landed_flips;
};

class AdaptiveWhiteBoxAttack {
 public:
  /// attack_x/y: the attacker's gradient/search batch.
  /// eval_x/y: held-out data for the reported accuracy trace.
  AdaptiveWhiteBoxAttack(quant::QuantizedModel& qm, nn::Tensor attack_x,
                         std::vector<u32> attack_y, nn::Tensor eval_x,
                         std::vector<u32> eval_y, AdaptiveAttackConfig cfg = {});

  /// `secured` is the full bit set protected by the defense (row-granular
  /// protection expands to every bit of every weight in a protected row).
  /// Flip attempts inside `secured` are blocked (no model effect); the
  /// search therefore skips them and lands flips only outside.
  AdaptiveAttackResult run(const quant::BitSkipSet& secured);

 private:
  quant::QuantizedModel& qm_;
  nn::Tensor attack_x_;
  std::vector<u32> attack_y_;
  nn::Tensor eval_x_;
  std::vector<u32> eval_y_;
  AdaptiveAttackConfig cfg_;
};

}  // namespace dnnd::attack
