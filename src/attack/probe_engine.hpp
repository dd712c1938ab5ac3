// The probe/rank/price/commit loop every searching attacker shares.
//
// One engine step, parameterized by an attack::Objective:
//   (1) zero gradients, objective->prepare(): base objective + bit gradients,
//   (2) exclusion bookkeeping: the caller's skip set plus every bit this
//       engine has already committed (the search never re-flips),
//   (3) intra-layer search: per-layer top-k candidates by first-order gain
//       (quant::top_k_flips over the accumulated gradients),
//   (4) inter-layer search: restrict to the most promising layers, then price
//       each shortlisted candidate EXACTLY with one QuantizedModel::probe:
//       flip without invalidating, re-forward only the channel the flipped
//       row feeds until the first channel-mixing layer and densely from
//       there (all in the model's probe workspace), revert the exact bytes,
//       then objective->measure. The clean activation cache is never written
//       by a probe, so every candidate reuses it,
//   (5) commit the best admissible improving flip (probe_loss_key ordering,
//       so a NaN-saturating probe ranks as +inf: a win for a maximizer, a
//       loss for a minimizer), optionally falling back to the best
//       first-order estimate when the objective allows it.
//
// The constructor owns the shared preamble: warm the activation cache with
// one full forward, which also resolves the model's class count.
//
// run() is the one budget/stop loop on the attack batch: it steps until a
// stop predicate holds on the committed flip's measurement, the flip budget
// is spent, or no candidate is left, and says which. The BFA
// (ProgressiveBitSearch::run), T-BFA (TbfaAttack::run), the campaign's
// limited-budget vwa-limited cell and the binary-weight sign-bit attack
// (defense::software::attack_binary) differ only in the objective and the
// predicate they pass.
//
// trace_accuracy() is the one loop for attacks measured on a held-out eval
// batch instead: it calls a step function and records the eval accuracy on
// a fixed cadence. The campaign's adaptive, random, trace and
// reconstruction-guard cells and ProtectedSystem::run_white_box_attack are
// calls of it. These drive ProgressiveBitSearch::step themselves, because
// they measure on the eval batch, skip a secured set, clamp after each flip,
// undo each flip or carry it through the DRAM: the adaptive cell, the guard
// and trace cells, the priority profiler's blocked attacker, and
// ProtectedSystem::white_box_step, the one white-box DRAM attack step that
// run_white_box_attack and serve_regime's attack slots both call (a random
// cell steps RandomBitAttack::flip_one instead). The campaign results are
// byte-identical to the pre-engine per-family loops (the tiny-grid golden
// and the paper-model golden gate this at zero tolerance).
#pragma once

#include <functional>
#include <optional>

#include "attack/objective.hpp"

namespace dnnd::attack {

/// Ordering key for probe losses: NaN maps to +infinity, everything else to
/// itself. A flip that saturates the logits to +-inf yields NaN cross-entropy
/// (inf - inf inside the softmax); to a loss-maximising attacker that is the
/// most destructive outcome available, not an invisible one -- but NaN
/// compares false under every ordering, so a bare `>` silently discarded
/// exactly those probes. All candidate comparisons go through this key, and
/// committed records carry the normalized (+inf) objective. The key is
/// idempotent, so the engine's running best stays normalized.
double probe_loss_key(double loss);

struct ProbeEngineConfig {
  usize candidates_per_layer = 2;  ///< top-k per layer for the exact evaluation
  usize layers_evaluated = 6;      ///< evaluate only the best n layers by estimate
                                   ///< (0 = all layers; >0 is a perf knob that
                                   ///< rarely changes the argmax)
};

/// One committed engine step.
struct EngineStep {
  quant::BitLocation loc;
  double objective_before = 0.0;  ///< base objective at the top of the step
  double objective_after = 0.0;   ///< committed probe's key-normalized objective
  /// The committed flip's measurement (the probe's scores: committing
  /// restores the exact probed state; re-measured only on fallback).
  ProbeMeasurement best;
  /// True when no evaluated candidate improved the objective and the engine
  /// fell back to the best first-order estimate (greedy escape; never
  /// re-flips a bit, so the search still terminates).
  bool fallback = false;
};

/// Why ProbeEngine::run ended.
enum class SearchOutcome {
  kReachedStop,          ///< the stop predicate held after a committed flip
  kBudgetExhausted,      ///< the whole flip budget was committed
  kCandidatesExhausted,  ///< step() returned nullopt: no admissible candidate,
                         ///< or none improved and the objective has no fallback
};

/// One ProbeEngine::run: every committed step in order, the measurement of
/// the state the run started from, and why it ended.
struct SearchResult {
  std::vector<EngineStep> steps;
  ProbeMeasurement initial;
  SearchOutcome outcome = SearchOutcome::kBudgetExhausted;

  [[nodiscard]] bool reached_stop() const { return outcome == SearchOutcome::kReachedStop; }
};

class ProbeEngine {
 public:
  /// Ends a run when it holds on a committed step's measurement.
  using StopPredicate = std::function<bool(const ProbeMeasurement&)>;

  /// `attack_x`/`attack_y` is the attacker's sample batch. `objective` must
  /// outlive the engine (drivers own both).
  ProbeEngine(quant::QuantizedModel& qm, nn::Tensor attack_x, std::vector<u32> attack_y,
              Objective& objective, ProbeEngineConfig cfg = {});

  /// Finds and commits the single best admissible flip not in `skip` (and not
  /// committed by this engine before). Returns nullopt when the candidate
  /// space is exhausted, or when nothing improves and the objective forbids
  /// the first-order fallback.
  std::optional<EngineStep> step(const quant::BitSkipSet& skip);

  /// Measures the current state into `initial`, then runs step(skip) until
  /// `done` holds on a committed step's measurement, `budget` flips are
  /// committed, or step() returns nullopt; result.outcome says which. `done`
  /// is never asked about the initial state: a driver that wants that
  /// precheck makes it itself. Flips stay committed in the model.
  SearchResult run(usize budget, const StopPredicate& done, const quant::BitSkipSet& skip = {});

  [[nodiscard]] const std::vector<u32>& y() const { return attack_y_; }
  /// Class count from the model's output dimension (NOT the labels present
  /// in the batch, which could omit classes and skew stop thresholds).
  [[nodiscard]] usize num_classes() const { return num_classes_; }
  /// Logits of the constructor's clean warm-up forward. Valid until the next
  /// forward on the model -- drivers use it for clean-state measurements
  /// immediately after construction.
  [[nodiscard]] const nn::Tensor& clean_logits() const { return *clean_logits_; }

 private:
  /// objective.measure on the committed state of the attack batch. The
  /// incremental forward re-runs only layers a commit made stale, so right
  /// after construction (or a priced commit) it is a cache hit, and it
  /// leaves the cache clean for the next step's prepare.
  void measure_committed(ProbeMeasurement& out);

  quant::QuantizedModel& qm_;
  nn::Tensor attack_x_;
  std::vector<u32> attack_y_;
  Objective& objective_;
  ProbeEngineConfig cfg_;
  usize num_classes_;
  const nn::Tensor* clean_logits_;
  quant::BitSkipSet flipped_;  ///< bits this engine has already committed
};

/// One trace_accuracy run: the eval accuracies it measured (index 0 before
/// any step), the steps taken, and whether a measurement reached the stop.
struct AccuracyTrace {
  std::vector<double> accuracy;
  usize steps = 0;
  bool reached_stop = false;
};

/// Measures evaluate_batch_incremental accuracy on (x, y) before the first
/// step, after every `every`-th step and after step `budget`, calling
/// `step` in between. Ends when `step` returns false (with no extra
/// measurement), after `budget` steps, or when a measurement is <= `stop`;
/// a negative `stop` never fires. Throws std::invalid_argument when `every`
/// is zero (the cadence has no "never" setting).
AccuracyTrace trace_accuracy(nn::Model& model, const nn::Tensor& x, const std::vector<u32>& y,
                             usize budget, usize every, double stop,
                             const std::function<bool()>& step);

}  // namespace dnnd::attack
