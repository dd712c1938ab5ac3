#include "attack/adaptive_attack.hpp"

#include <stdexcept>

#include "attack/probe_engine.hpp"

namespace dnnd::attack {

AdaptiveWhiteBoxAttack::AdaptiveWhiteBoxAttack(quant::QuantizedModel& qm, nn::Tensor attack_x,
                                               std::vector<u32> attack_y, nn::Tensor eval_x,
                                               std::vector<u32> eval_y,
                                               AdaptiveAttackConfig cfg)
    : qm_(qm),
      attack_x_(std::move(attack_x)),
      attack_y_(std::move(attack_y)),
      eval_x_(std::move(eval_x)),
      eval_y_(std::move(eval_y)),
      cfg_(cfg) {
  if (cfg_.measure_every == 0) {
    throw std::invalid_argument("adaptive attack: measure_every must be nonzero");
  }
}

AdaptiveAttackResult AdaptiveWhiteBoxAttack::run(const quant::BitSkipSet& secured) {
  AdaptiveAttackResult result;
  result.secured_bits = secured.size();
  // The attacker first iterates through the secured candidates: every attempt
  // is refreshed away by the defense, so the model is unchanged. The trace
  // therefore starts at the clean accuracy.
  result.accuracy_trace.push_back(qm_.model().evaluate_batch_incremental(eval_x_, eval_y_).accuracy);

  // Adapted search: the untargeted probe engine with the secured set as a
  // standing skip, i.e. only unprotected bits can land. The eval-batch
  // measurements use the incremental helper: it degrades to a full forward
  // whenever the preceding step left the cache on the attack batch, and
  // reuses it otherwise.
  UntargetedCeObjective objective;
  ProbeEngine engine(qm_, attack_x_, attack_y_, objective);
  for (usize k = 1; k <= cfg_.max_additional_flips; ++k) {
    auto rec = engine.step(secured);
    if (!rec.has_value()) break;
    result.landed_flips.push_back(rec->loc);
    if (k % cfg_.measure_every == 0 || k == cfg_.max_additional_flips) {
      result.accuracy_trace.push_back(
          qm_.model().evaluate_batch_incremental(eval_x_, eval_y_).accuracy);
    }
  }
  return result;
}

}  // namespace dnnd::attack
