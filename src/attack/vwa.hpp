// Limited-bit-budget weight attack in the style of Versatile Weight Attack
// (Bai et al., "Versatile Weight Attack via Flipping Limited Bits"): the
// attacker's defining constraint is a HARD flip budget B -- it seeks the
// best damage achievable at <= B flips, not the fewest flips to a damage
// target. Operationally that inverts BFA's reporting: hitting the stop
// accuracy early is a bonus, exhausting the budget is the EXPECTED outcome
// and must be reported distinctly (a campaign cell that spent its whole
// budget is not the same result as one whose candidates dried up).
//
// A thin driver over attack::ProbeEngine with the untargeted maximizer and
// the fallback disabled: an attacker paying for every flip out of a hard
// budget never spends one on a candidate that did not actually improve the
// objective, so a step with no improving probe ends the attack (candidates
// exhausted) instead of thrashing.
#pragma once

#include <optional>

#include "attack/probe_engine.hpp"

namespace dnnd::attack {

struct VwaLimitedConfig {
  usize flip_budget = 10;          ///< hard budget B: never commits more flips
  double stop_accuracy = 0.0;      ///< early-out when attack-batch accuracy <=
                                   ///< this; 0 = random-guess level
};

/// Why the attack ended -- budget exhaustion is a first-class outcome, not a
/// failure to reach the stop accuracy.
enum class VwaOutcome {
  kReachedStop,          ///< accuracy fell to the stop level before the budget ran out
  kBudgetExhausted,      ///< all B flips spent (the nominal limited-bit result)
  kCandidatesExhausted,  ///< no improving admissible candidate remained
};

/// One committed flip.
struct VwaFlip {
  quant::BitLocation loc;
  double loss_before = 0.0;
  double loss_after = 0.0;
  double batch_accuracy_after = 0.0;
};

struct VwaLimitedResult {
  std::vector<VwaFlip> flips;
  double initial_batch_accuracy = 0.0;
  double final_batch_accuracy = 0.0;
  VwaOutcome outcome = VwaOutcome::kBudgetExhausted;
  [[nodiscard]] bool reached_stop() const { return outcome == VwaOutcome::kReachedStop; }
  [[nodiscard]] bool budget_exhausted() const {
    return outcome == VwaOutcome::kBudgetExhausted;
  }
};

class VwaLimitedAttack {
 public:
  /// Throws std::invalid_argument when cfg.flip_budget is zero: a limited-bit
  /// attack with no bits is a configuration error, not an empty result.
  VwaLimitedAttack(quant::QuantizedModel& qm, nn::Tensor attack_x,
                   std::vector<u32> attack_y, VwaLimitedConfig cfg = {});

  /// Finds and commits the single best improving flip not in `skip` (and not
  /// flipped before). Returns nullopt when no candidate improves the loss --
  /// the budget is enforced by run(), not here.
  std::optional<VwaFlip> step(const quant::BitSkipSet& skip);

  /// Runs `step` until the stop accuracy, the flip budget, or the candidates
  /// run out (result.outcome says which); flips are committed in `qm`.
  VwaLimitedResult run(const quant::BitSkipSet& skip = {});

  [[nodiscard]] const VwaLimitedConfig& config() const { return cfg_; }
  [[nodiscard]] double stop_threshold() const;

 private:
  VwaLimitedConfig cfg_;
  UntargetedCeObjective objective_;
  ProbeEngine engine_;
};

}  // namespace dnnd::attack
