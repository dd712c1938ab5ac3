// T-BFA -- the class-targeted Bit-Flip Attack family of Rakin et al.
// (Targeted Attack against DNNs with Limited Bit-Flips), the regime the
// untargeted accuracy-collapse evaluation never exercises: instead of
// maximising the inference loss, the attacker MINIMISES a targeted objective
// that redirects source-class inputs to a chosen target class.
//
// Three variants:
//   N-to-1    every non-target class is a source (total misdirection),
//   1-to-1    a single source class is redirected, everything else is free,
//   stealthy  1-to-1 under an admissibility constraint: accuracy on the
//             non-source rows of the attack batch must stay within a
//             tolerance of its clean value, so the attack is invisible to an
//             overall-accuracy monitor.
//
// A thin driver over attack::ProbeEngine::run paired with the targeted
// cross-entropy minimizer (negated-gradient candidate ranking, stealthy
// admission as the objective-level constraint, deliberately no
// first-order-estimate fallback). Success is measured as the attack success
// rate (ASR): the fraction of source rows predicted as the target class, and
// the run stops once it reaches cfg.stop_asr. The engine's measurements carry
// the targeted family's metrics: `objective` is the targeted loss (lower =
// better attack), `asr` the source->target rate and `other_accuracy` the
// attack-batch accuracy outside the sources.
#pragma once

#include "attack/probe_engine.hpp"

namespace dnnd::attack {

enum class TbfaVariant {
  kNTo1,      ///< all sources -> target
  k1To1,      ///< one source -> target
  kStealthy,  ///< 1-to-1 with the other-class accuracy constraint
};

struct TbfaConfig {
  TbfaVariant variant = TbfaVariant::kNTo1;
  u32 source = 0;  ///< source class (k1To1/kStealthy; ignored for kNTo1)
  u32 target = 1;  ///< class the sources are redirected to
  usize max_flips = 60;
  double stop_asr = 0.999;  ///< stop when attack-batch ASR >= this
  /// kStealthy: a probe is admissible only while attack-batch accuracy on the
  /// non-source rows stays within this of its clean value.
  double stealth_tolerance = 0.1;
  /// Weight of the keep-other-classes term in the targeted objective
  /// (kStealthy only; the unconstrained variants optimise the pure
  /// redirect term).
  double stealth_weight = 1.0;
};

class TbfaAttack {
 public:
  /// `attack_x`/`attack_y` is the attacker's sample batch. Throws
  /// std::invalid_argument when target/source fall outside the model's class
  /// count or source == target for the 1-to-1 variants.
  TbfaAttack(quant::QuantizedModel& qm, nn::Tensor attack_x, std::vector<u32> attack_y,
             TbfaConfig cfg = {});

  /// ProbeEngine::run for cfg.max_flips flips, stopping once the attack-batch
  /// ASR is >= cfg.stop_asr; flips are committed in `qm`. A step commits only
  /// a flip that lowers the targeted objective and (kStealthy) satisfies the
  /// constraint -- there is deliberately no first-order-estimate fallback: a
  /// targeted attack that can only make things worse must stop, not thrash.
  /// When the clean model already meets cfg.stop_asr the run commits nothing
  /// and reports kReachedStop.
  SearchResult run(const quant::BitSkipSet& skip = {});

  [[nodiscard]] const TbfaConfig& config() const { return cfg_; }
  /// Resolved source selector: nn::kAllSources for kNTo1, cfg.source else.
  [[nodiscard]] u32 source_class() const { return source_; }
  /// Clean (pre-attack) attack-batch accuracy outside the sources, taken at
  /// construction: the stealthy admission bound is measured against it.
  [[nodiscard]] double clean_other_accuracy() const { return clean_other_acc_; }

 private:
  [[nodiscard]] double stealth_weight() const;

  TbfaConfig cfg_;
  u32 source_ = 0;
  TargetedCeObjective objective_;
  ProbeEngine engine_;
  double clean_asr_ = 0.0;
  double clean_other_acc_ = 0.0;
};

}  // namespace dnnd::attack
