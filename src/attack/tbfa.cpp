#include "attack/tbfa.hpp"

#include <stdexcept>
#include <string>

namespace dnnd::attack {

double TbfaAttack::stealth_weight() const {
  return cfg_.variant == TbfaVariant::kStealthy ? cfg_.stealth_weight : 0.0;
}

TbfaAttack::TbfaAttack(quant::QuantizedModel& qm, nn::Tensor attack_x,
                       std::vector<u32> attack_y, TbfaConfig cfg)
    : cfg_(cfg),
      source_(cfg.variant == TbfaVariant::kNTo1 ? nn::kAllSources : cfg.source),
      objective_(source_, cfg.target, stealth_weight(),
                 cfg.variant == TbfaVariant::kStealthy, cfg.stealth_tolerance),
      // The engine's preamble is the shared contract: it warms the cache
      // with one clean forward the validation below reads the class count
      // from.
      engine_(qm, std::move(attack_x), std::move(attack_y), objective_,
              ProbeEngineConfig{}) {
  const usize num_classes = engine_.num_classes();
  if (cfg_.target >= num_classes) {
    throw std::invalid_argument("tbfa: target class " + std::to_string(cfg_.target) +
                                " out of range (model has " +
                                std::to_string(num_classes) + " classes)");
  }
  if (cfg_.variant != TbfaVariant::kNTo1) {
    if (cfg_.source >= num_classes) {
      throw std::invalid_argument("tbfa: source class " + std::to_string(cfg_.source) +
                                  " out of range (model has " +
                                  std::to_string(num_classes) + " classes)");
    }
    if (cfg_.source == cfg_.target) {
      throw std::invalid_argument("tbfa: source and target class must differ (both " +
                                  std::to_string(cfg_.source) + ")");
    }
  }
  // Clean measurement from the warm-up logits; the baseline anchors both the
  // result's initial ASR and the stealthy admission predicate.
  nn::PerClassEval clean;
  nn::evaluate_logits_per_class(engine_.clean_logits(), engine_.y(), source_, cfg_.target,
                                clean);
  clean_asr_ = clean.attack_success_rate();
  clean_other_acc_ = clean.other_accuracy();
  objective_.set_stealth_baseline(clean_other_acc_);
}

SearchResult TbfaAttack::run(const quant::BitSkipSet& skip) {
  const double stop = cfg_.stop_asr;
  // The precheck is T-BFA's own: a model that already complies gets no flip.
  const bool complies = clean_asr_ >= stop;
  SearchResult result = engine_.run(
      complies ? 0 : cfg_.max_flips,
      [stop](const ProbeMeasurement& m) { return m.asr >= stop; }, skip);
  if (complies) result.outcome = SearchOutcome::kReachedStop;
  return result;
}

}  // namespace dnnd::attack
