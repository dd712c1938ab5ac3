// Bit-level gradient ranking used by the BFA's intra-layer search.
//
// For weight w = s*q with accumulated gradient g = dL/dw, flipping
// two's-complement bit j changes the code by dq = (1 - 2*b_j) * bit_weight(j)
// and the loss by approximately dL = g * s * dq (first order). The attack
// ranks bits by this estimated loss increase, which matches the
// |grad|-ranking + sign-masking formulation of Rakin et al. (ICCV'19).
#pragma once

#include <unordered_set>
#include <vector>

#include "quant/quantizer.hpp"

namespace dnnd::quant {

/// Set of bits to exclude from candidate selection (already flipped in a
/// previous round, or secured by the defense).
class BitSkipSet {
 public:
  void insert(const BitLocation& loc) { keys_.insert(loc.key()); }
  /// Set union: merges `other` without materializing BitLocations (the
  /// ProbeEngine folds its committed-flip set into the caller's skip set
  /// once per step, so this is on the search hot path).
  void insert_all(const BitSkipSet& other) {
    keys_.insert(other.keys_.begin(), other.keys_.end());
  }
  [[nodiscard]] bool contains(const BitLocation& loc) const {
    return keys_.count(loc.key()) != 0;
  }
  [[nodiscard]] usize size() const { return keys_.size(); }
  [[nodiscard]] bool empty() const { return keys_.empty(); }

  /// Iteration support (stable order not guaranteed).
  [[nodiscard]] std::vector<BitLocation> to_vector() const;

 private:
  std::unordered_set<u64> keys_;
};

/// One candidate bit flip with its first-order loss-increase estimate.
struct FlipCandidate {
  BitLocation loc;
  double estimated_gain = 0.0;  ///< first-order dL of the flip (>0 raises loss)
};

/// First-order loss change of flipping bit `bit` of weight `index` in `layer`
/// given its current code and gradient.
double flip_gain(const QuantizedLayer& layer, usize index, u32 bit);

/// Top-k candidates of one layer by estimated gain over its attackable bits
/// (QuantizedLayer::lowest_bit through the sign bit), skipping `skip`.
/// Only candidates with positive estimated gain are returned (a flip that
/// lowers the loss is never useful to the attacker).
std::vector<FlipCandidate> top_k_flips(const QuantizedLayer& layer, usize layer_index, usize k,
                                       const BitSkipSet& skip);

}  // namespace dnnd::quant
