#include "attack/probe_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dnnd::attack {

double probe_loss_key(double loss) {
  return std::isnan(loss) ? std::numeric_limits<double>::infinity() : loss;
}

ProbeEngine::ProbeEngine(quant::QuantizedModel& qm, nn::Tensor attack_x,
                         std::vector<u32> attack_y, Objective& objective,
                         ProbeEngineConfig cfg)
    : qm_(qm),
      attack_x_(std::move(attack_x)),
      attack_y_(std::move(attack_y)),
      objective_(objective),
      cfg_(cfg) {
  // One full forward: resolves the class count from the model's output
  // dimension and warms the activation cache the first step() reuses.
  clean_logits_ = &qm_.model().forward_cached(attack_x_, /*train=*/false);
  num_classes_ = clean_logits_->dim(1);
}

std::optional<EngineStep> ProbeEngine::step(const quant::BitSkipSet& skip) {
  nn::Model& model = qm_.model();
  // (1) base objective + bit gradients on the attack batch. The forward half
  // is incremental: when the previous step left a cache on this batch, only
  // layers at/beyond the earliest committed flip re-run (byte-identical to
  // a full pass). It also leaves the activation cache clean, which every
  // candidate probe below reads and none writes.
  model.zero_grad();
  const double base = objective_.prepare(model, attack_x_, attack_y_);

  // Effective exclusion: caller's skip set plus everything this engine has
  // already committed (the search never undoes its own flips).
  quant::BitSkipSet exclude = skip;
  exclude.insert_all(flipped_);

  // (2) intra-layer search: per-layer top-k candidates by first-order gain.
  struct LayerBest {
    usize layer;
    std::vector<quant::FlipCandidate> cands;
  };
  std::vector<LayerBest> per_layer;
  for (usize l = 0; l < qm_.num_layers(); ++l) {
    auto cands = quant::top_k_flips(qm_.layer(l), l, cfg_.candidates_per_layer, exclude);
    if (!cands.empty()) per_layer.push_back({l, std::move(cands)});
  }
  if (per_layer.empty()) return std::nullopt;

  // (3) inter-layer search: restrict to the most promising layers, then
  // price candidates' actual objective by flip / forward / unflip.
  if (cfg_.layers_evaluated > 0 && per_layer.size() > cfg_.layers_evaluated) {
    std::partial_sort(per_layer.begin(),
                      per_layer.begin() + static_cast<isize>(cfg_.layers_evaluated),
                      per_layer.end(), [](const LayerBest& a, const LayerBest& b) {
                        return a.cands.front().estimated_gain >
                               b.cands.front().estimated_gain;
                      });
    per_layer.resize(cfg_.layers_evaluated);
  }

  const bool maximize = objective_.direction() == SearchDirection::kMaximize;
  std::optional<quant::BitLocation> best_loc;
  double best_key = probe_loss_key(base);
  ProbeMeasurement best;
  ProbeMeasurement probe;
  for (const LayerBest& lb : per_layer) {
    for (const quant::FlipCandidate& cand : lb.cands) {
      // flip / channel-sparse forward / revert in one call: only what the
      // flipped row can change is recomputed, in the probe workspace, so the
      // clean cache serves every candidate. Every metric the objective
      // reports comes from the single resulting logits tensor.
      objective_.measure(qm_.probe(cand.loc), attack_y_, probe);
      if (!probe.admissible) {
        continue;  // violates the objective's constraint (stealthy admission)
      }
      // Ordering through probe_loss_key: a probe whose objective saturated to
      // NaN ranks as +inf -- maximally destructive for a maximizer, a sure
      // loss for a minimizer -- instead of comparing false and vanishing.
      // best_key holds the normalized key throughout.
      const double key = probe_loss_key(probe.objective);
      if (maximize ? key > best_key : key < best_key) {
        best_key = key;
        best_loc = cand.loc;
        best = probe;
      }
    }
  }
  bool fallback = false;
  if (!best_loc.has_value()) {
    // No evaluated candidate improved the objective. Objectives that pay for
    // every flip (targeted, budget-limited) stop here; the unconstrained
    // maximizer falls back to the globally best first-order estimate (greedy
    // escape; progress is guaranteed because committed bits are never
    // revisited).
    if (!objective_.allow_estimate_fallback()) return std::nullopt;
    const quant::FlipCandidate* best_est = nullptr;
    for (const LayerBest& lb : per_layer) {
      if (best_est == nullptr || lb.cands.front().estimated_gain > best_est->estimated_gain) {
        best_est = &lb.cands.front();
      }
    }
    best_loc = best_est->loc;
    fallback = true;
  }

  // (4) commit
  qm_.flip(*best_loc);
  flipped_.insert(*best_loc);
  if (fallback) {
    // A fallback flip was never priced: measure the committed state.
    measure_committed(best);
    best_key = probe_loss_key(best.objective);
  }
  EngineStep out;
  out.loc = *best_loc;
  out.objective_before = base;
  out.objective_after = best_key;
  out.best = best;
  out.fallback = fallback;
  return out;
}

SearchResult ProbeEngine::run(usize budget, const StopPredicate& done,
                              const quant::BitSkipSet& skip) {
  SearchResult result;
  measure_committed(result.initial);
  while (result.steps.size() < budget) {
    auto es = step(skip);
    if (!es.has_value()) {
      result.outcome = SearchOutcome::kCandidatesExhausted;
      break;
    }
    result.steps.push_back(*es);
    if (done(es->best)) {
      result.outcome = SearchOutcome::kReachedStop;
      break;
    }
  }
  return result;
}

void ProbeEngine::measure_committed(ProbeMeasurement& out) {
  objective_.measure(qm_.model().forward_incremental_logits(attack_x_), attack_y_, out);
}

AccuracyTrace trace_accuracy(nn::Model& model, const nn::Tensor& x, const std::vector<u32>& y,
                             usize budget, usize every, double stop,
                             const std::function<bool()>& step) {
  if (every == 0) throw std::invalid_argument("trace_accuracy: every must be nonzero");
  AccuracyTrace trace;
  // Every measurement is on the same batch object, so after the first full
  // forward each one re-runs only the layers below the earliest change since
  // the last one (byte-identical to evaluate_batch); a step that forwarded
  // another batch makes it a full pass.
  auto measure_reaches_stop = [&] {
    trace.accuracy.push_back(model.evaluate_batch_incremental(x, y).accuracy);
    trace.reached_stop = trace.accuracy.back() <= stop;
    return trace.reached_stop;
  };
  if (measure_reaches_stop()) return trace;
  while (trace.steps < budget && step()) {
    ++trace.steps;
    if ((trace.steps % every == 0 || trace.steps == budget) && measure_reaches_stop()) break;
  }
  return trace;
}

}  // namespace dnnd::attack
