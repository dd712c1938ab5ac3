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

std::optional<TbfaFlip> TbfaAttack::step(const quant::BitSkipSet& skip) {
  auto es = engine_.step(skip);
  if (!es.has_value()) return std::nullopt;
  TbfaFlip best;
  best.loc = es->loc;
  best.loss_before = es->objective_before;
  best.loss_after = es->objective_after;
  // The probe measurements ARE the post-commit measurements (committing
  // restores the exact probed state).
  best.asr_after = es->best.asr;
  best.other_acc_after = es->best.other_accuracy;
  return best;
}

TbfaResult TbfaAttack::run(const quant::BitSkipSet& skip) {
  TbfaResult result;
  result.initial_asr = clean_asr_;
  result.initial_other_acc = clean_other_acc_;
  result.final_asr = clean_asr_;
  result.final_other_acc = clean_other_acc_;
  if (clean_asr_ >= cfg_.stop_asr) {
    result.reached_stop = true;  // nothing to do: the model already complies
    return result;
  }
  for (usize i = 0; i < cfg_.max_flips; ++i) {
    auto rec = step(skip);
    if (!rec.has_value()) break;
    result.final_asr = rec->asr_after;
    result.final_other_acc = rec->other_acc_after;
    result.flips.push_back(*rec);
    if (rec->asr_after >= cfg_.stop_asr) {
      result.reached_stop = true;
      break;
    }
  }
  return result;
}

}  // namespace dnnd::attack
