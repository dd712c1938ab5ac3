#include "attack/bfa.hpp"

namespace dnnd::attack {

ProgressiveBitSearch::ProgressiveBitSearch(quant::QuantizedModel& qm, nn::Tensor attack_x,
                                           std::vector<u32> attack_y, BfaConfig cfg)
    : cfg_(cfg),
      objective_(/*allow_fallback=*/true),
      engine_(qm, std::move(attack_x), std::move(attack_y), objective_,
              {cfg.candidates_per_layer, cfg.layers_evaluated}) {}

double ProgressiveBitSearch::stop_threshold() const {
  return cfg_.stop_accuracy > 0.0 ? cfg_.stop_accuracy
                                  : 1.05 / static_cast<double>(engine_.num_classes());
}

std::optional<FlipRecord> ProgressiveBitSearch::step(const quant::BitSkipSet& skip) {
  auto es = engine_.step(skip);
  if (!es.has_value()) return std::nullopt;
  FlipRecord rec;
  rec.loc = es->loc;
  rec.loss_before = es->objective_before;
  rec.loss_after = es->objective_after;
  rec.batch_accuracy_after = es->best.accuracy;
  rec.fallback = es->fallback;
  return rec;
}

BfaResult ProgressiveBitSearch::run(const quant::BitSkipSet& skip) {
  BfaResult result;
  result.initial_batch_accuracy =
      engine_.qm().model().evaluate_batch(engine_.x(), engine_.y()).accuracy;
  result.final_batch_accuracy = result.initial_batch_accuracy;
  const double stop = stop_threshold();
  for (usize i = 0; i < cfg_.max_flips; ++i) {
    auto rec = step(skip);
    if (!rec.has_value()) break;
    result.final_batch_accuracy = rec->batch_accuracy_after;
    result.flips.push_back(*rec);
    if (rec->batch_accuracy_after <= stop) {
      result.reached_stop = true;
      break;
    }
  }
  return result;
}

}  // namespace dnnd::attack
