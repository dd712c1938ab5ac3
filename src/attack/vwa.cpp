#include "attack/vwa.hpp"

#include <stdexcept>

namespace dnnd::attack {

VwaLimitedAttack::VwaLimitedAttack(quant::QuantizedModel& qm, nn::Tensor attack_x,
                                   std::vector<u32> attack_y, VwaLimitedConfig cfg)
    : cfg_(cfg),
      objective_(/*allow_fallback=*/false),
      engine_(qm, std::move(attack_x), std::move(attack_y), objective_,
              ProbeEngineConfig{}) {
  if (cfg_.flip_budget == 0) {
    throw std::invalid_argument("vwa-limited: flip_budget must be nonzero");
  }
}

double VwaLimitedAttack::stop_threshold() const {
  return cfg_.stop_accuracy > 0.0 ? cfg_.stop_accuracy
                                  : 1.05 / static_cast<double>(engine_.num_classes());
}

std::optional<VwaFlip> VwaLimitedAttack::step(const quant::BitSkipSet& skip) {
  auto es = engine_.step(skip);
  if (!es.has_value()) return std::nullopt;
  VwaFlip rec;
  rec.loc = es->loc;
  rec.loss_before = es->objective_before;
  rec.loss_after = es->objective_after;
  rec.batch_accuracy_after = es->best.accuracy;
  return rec;
}

VwaLimitedResult VwaLimitedAttack::run(const quant::BitSkipSet& skip) {
  VwaLimitedResult result;
  result.initial_batch_accuracy =
      engine_.qm().model().evaluate_batch(engine_.x(), engine_.y()).accuracy;
  result.final_batch_accuracy = result.initial_batch_accuracy;
  const double stop = stop_threshold();
  // Budget exhaustion is the default outcome: the loop only overrides it
  // when it ends for a different reason.
  result.outcome = VwaOutcome::kBudgetExhausted;
  for (usize i = 0; i < cfg_.flip_budget; ++i) {
    auto rec = step(skip);
    if (!rec.has_value()) {
      result.outcome = VwaOutcome::kCandidatesExhausted;
      break;
    }
    result.final_batch_accuracy = rec->batch_accuracy_after;
    result.flips.push_back(*rec);
    if (rec->batch_accuracy_after <= stop) {
      result.outcome = VwaOutcome::kReachedStop;
      break;
    }
  }
  return result;
}

}  // namespace dnnd::attack
