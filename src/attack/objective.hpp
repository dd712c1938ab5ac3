// Pluggable attack objectives for the shared ProbeEngine.
//
// Every searching attacker in this codebase prices bit-flip candidates with
// the same machinery (gradient-ranked top-k, flip / incremental forward /
// unflip); what distinguishes the families is WHAT they optimize and under
// which admissibility constraint. An Objective packages exactly that policy:
//
//   prepare()  - compute the base objective on the attack batch and
//                accumulate bit gradients such that quant::top_k_flips ranks
//                candidates whose first-order effect IMPROVES the objective
//                (raises it for a maximizer, lowers it for a minimizer --
//                the minimizers accumulate the NEGATED gradient),
//   measure()  - score one probe from the already-forwarded logits, filling
//                every metric the driver may report plus the admissibility
//                verdict (e.g. the stealthy T-BFA collateral-damage bound),
//   direction() / allow_estimate_fallback() - how probes compare and whether
//                a step with no improving probe may fall back to the best
//                first-order estimate (only the unconstrained untargeted
//                attacker thrashes; targeted and budget-limited ones stop).
#pragma once

#include "nn/dataset.hpp"
#include "nn/loss.hpp"
#include "quant/bit_gradient.hpp"

namespace dnnd::attack {

/// Whether a larger or smaller objective value is a better attack.
enum class SearchDirection {
  kMaximize,  ///< untargeted damage: drive the inference loss up
  kMinimize,  ///< targeted redirection: drive the targeted objective down
};

/// One probe's scores. `objective` is the raw objective value (NaN allowed;
/// the engine normalizes through probe_loss_key); the remaining metrics are
/// whatever the objective's family reports (untargeted fills `accuracy`,
/// targeted fills `asr`/`other_accuracy`).
struct ProbeMeasurement {
  double objective = 0.0;
  double accuracy = 0.0;        ///< attack-batch accuracy (untargeted family)
  double asr = 0.0;             ///< source->target rate (targeted family)
  double other_accuracy = 0.0;  ///< non-source-row accuracy (targeted family)
  /// False when the probe violates an objective-level constraint (stealthy
  /// admission); the engine never commits an inadmissible flip.
  bool admissible = true;
};

class Objective {
 public:
  virtual ~Objective() = default;

  [[nodiscard]] virtual SearchDirection direction() const = 0;
  [[nodiscard]] virtual bool allow_estimate_fallback() const = 0;

  /// Base objective value on the attack batch, with bit gradients accumulated
  /// in `model` (the engine zeroes them first). The forward half must be
  /// incremental so a cache left by the previous step is reused.
  virtual double prepare(nn::Model& model, const nn::Tensor& x,
                         const std::vector<u32>& y) = 0;

  /// Scores one probe from the logits of an (incremental) forward.
  virtual void measure(const nn::Tensor& logits, const std::vector<u32>& y,
                       ProbeMeasurement& out) = 0;
};

/// Untargeted cross-entropy maximizer -- the classic BFA objective (Rakin et
/// al. ICCV'19). With `allow_fallback` false it doubles as the limited-budget
/// VWA objective and the binary-weight sign-bit attack's: an attacker paying
/// for every flip never spends one on a non-improving first-order estimate.
class UntargetedCeObjective final : public Objective {
 public:
  explicit UntargetedCeObjective(bool allow_fallback = true)
      : allow_fallback_(allow_fallback) {}

  [[nodiscard]] SearchDirection direction() const override {
    return SearchDirection::kMaximize;
  }
  [[nodiscard]] bool allow_estimate_fallback() const override { return allow_fallback_; }

  double prepare(nn::Model& model, const nn::Tensor& x,
                 const std::vector<u32>& y) override {
    return model.loss_and_grad_incremental(x, y).loss;
  }

  void measure(const nn::Tensor& logits, const std::vector<u32>& y,
               ProbeMeasurement& out) override {
    const nn::BatchEval ev = nn::evaluate_logits(logits, y);
    out.objective = ev.loss;
    out.accuracy = ev.accuracy;
    out.admissible = true;
  }

 private:
  bool allow_fallback_;
};

/// Targeted cross-entropy minimizer -- the T-BFA family objective. The
/// engine maximizes top_k_flips' accumulated gradient, so prepare()
/// accumulates d(-L): the flips estimated to LOWER the targeted loss rank
/// first. The stealthy variant's collateral-damage bound is the admission
/// predicate: a probe whose non-source-row accuracy falls more than
/// `stealth_tolerance` below the clean value is inadmissible.
class TargetedCeObjective final : public Objective {
 public:
  /// `stealth_weight` is the keep-other-classes term weight (0 for the
  /// unconstrained variants); `stealthy` enables the admission predicate.
  TargetedCeObjective(u32 source, u32 target, double stealth_weight, bool stealthy,
                      double stealth_tolerance)
      : source_(source),
        target_(target),
        stealth_weight_(stealth_weight),
        stealthy_(stealthy),
        stealth_tolerance_(stealth_tolerance) {}

  /// The clean non-source-row accuracy the stealth bound is measured against;
  /// the driver measures it once on the clean model and installs it here.
  void set_stealth_baseline(double clean_other_accuracy) {
    clean_other_acc_ = clean_other_accuracy;
  }

  [[nodiscard]] SearchDirection direction() const override {
    return SearchDirection::kMinimize;
  }
  /// Deliberately no first-order-estimate fallback: an untargeted attack can
  /// thrash its way out of a plateau, a targeted (and especially a stealthy)
  /// one would only burn budget on flips that hurt its own objective.
  [[nodiscard]] bool allow_estimate_fallback() const override { return false; }

  double prepare(nn::Model& model, const nn::Tensor& x,
                 const std::vector<u32>& y) override {
    const nn::Tensor& logits = model.forward_incremental_logits(x);
    const double base = nn::targeted_cross_entropy(logits, y, source_, target_,
                                                   stealth_weight_, &dlogits_);
    for (usize i = 0; i < dlogits_.size(); ++i) dlogits_[i] = -dlogits_[i];
    model.backward(dlogits_);
    return base;
  }

  void measure(const nn::Tensor& logits, const std::vector<u32>& y,
               ProbeMeasurement& out) override {
    nn::evaluate_logits_per_class(logits, y, source_, target_, scratch_);
    out.objective =
        nn::targeted_cross_entropy(logits, y, source_, target_, stealth_weight_);
    out.asr = scratch_.attack_success_rate();
    out.other_accuracy = scratch_.other_accuracy();
    out.admissible =
        !(stealthy_ && out.other_accuracy < clean_other_acc_ - stealth_tolerance_);
  }

 private:
  u32 source_;
  u32 target_;
  double stealth_weight_;
  bool stealthy_;
  double stealth_tolerance_;
  double clean_other_acc_ = 0.0;
  nn::PerClassEval scratch_;  ///< probe measurements (allocation-free reuse)
  nn::Tensor dlogits_;        ///< gradient scratch for the targeted objective
};

}  // namespace dnnd::attack
