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

SearchResult ProgressiveBitSearch::run(const quant::BitSkipSet& skip) {
  const double stop = stop_threshold();
  return engine_.run(
      cfg_.max_flips, [stop](const ProbeMeasurement& m) { return m.accuracy <= stop; }, skip);
}

}  // namespace dnnd::attack
