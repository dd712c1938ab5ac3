// Progressive Bit Search -- the Bit-Flip Attack of Rakin et al. (ICCV'19),
// the attack the paper defends against.
//
// Each iteration: (1) compute bit gradients of the inference loss on the
// attack batch, (2) intra-layer search: per layer, the top-k bits by
// first-order loss gain, (3) inter-layer search: evaluate the candidates'
// *actual* loss by flipping/unflipping, (4) commit the argmax flip.
// The search stops when accuracy on the attack batch falls to the random
// guess level (the paper's "DNN malfunction") or the flip budget runs out.
//
// The loop itself lives in attack::ProbeEngine; this driver pairs it with
// the untargeted cross-entropy maximizer (with its first-order fallback) and
// the random-guess stop accuracy.
#pragma once

#include <optional>

#include "attack/probe_engine.hpp"

namespace dnnd::attack {

struct BfaConfig {
  usize candidates_per_layer = 2;  ///< top-k per layer for the exact evaluation
  usize layers_evaluated = 6;      ///< evaluate only the best n layers by estimate
                                   ///< (0 = all layers; >0 is a perf knob that
                                   ///< rarely changes the argmax)
  usize max_flips = 60;
  double stop_accuracy = 0.0;      ///< stop when attack-batch accuracy <= this;
                                   ///< 0 = random-guess level (1/num_classes)
};

/// One committed flip.
struct FlipRecord {
  quant::BitLocation loc;
  double loss_before = 0.0;
  double loss_after = 0.0;
  double batch_accuracy_after = 0.0;
  /// True when no evaluated candidate raised the loss and the search fell
  /// back to the best first-order estimate (greedy escape; never re-flips a
  /// bit, so the search still terminates).
  bool fallback = false;
};

class ProgressiveBitSearch {
 public:
  /// `attack_x`/`attack_y` is the attacker's sample batch (the paper uses 128
  /// test images; smaller batches trade precision for speed).
  ProgressiveBitSearch(quant::QuantizedModel& qm, nn::Tensor attack_x,
                       std::vector<u32> attack_y, BfaConfig cfg = {});

  /// Finds and commits the single best flip not in `skip` (and not flipped
  /// by this search before -- BFA keeps the hamming distance minimal and
  /// never re-flips). Returns nullopt when the candidate space is exhausted.
  std::optional<FlipRecord> step(const quant::BitSkipSet& skip);

  /// ProbeEngine::run for cfg.max_flips flips, stopping once the
  /// attack-batch accuracy is <= stop_threshold(); flips are committed in
  /// `qm`.
  SearchResult run(const quant::BitSkipSet& skip = {});

  [[nodiscard]] const BfaConfig& config() const { return cfg_; }
  [[nodiscard]] double stop_threshold() const;

 private:
  BfaConfig cfg_;
  UntargetedCeObjective objective_;
  ProbeEngine engine_;
};

}  // namespace dnnd::attack
