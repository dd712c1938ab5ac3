#include "quant/bit_gradient.hpp"

#include <algorithm>
#include <cassert>

namespace dnnd::quant {

std::vector<BitLocation> BitSkipSet::to_vector() const {
  std::vector<BitLocation> out;
  out.reserve(keys_.size());
  for (u64 k : keys_) out.push_back(BitLocation::from_key(k));
  return out;
}

double flip_gain(const QuantizedLayer& layer, usize index, u32 bit) {
  assert(index < layer.size());
  const i8 q = layer.q[index];
  const double g = (*layer.grad)[index];
  const double dq = (get_bit(q, bit) ? -1.0 : 1.0) * bit_weight(bit);
  return g * static_cast<double>(layer.scale) * dq;
}

std::vector<FlipCandidate> top_k_flips(const QuantizedLayer& layer, usize layer_index, usize k,
                                       const BitSkipSet& skip) {
  std::vector<FlipCandidate> best;
  best.reserve(k + 1);
  for (usize i = 0; i < layer.size(); ++i) {
    const double g = (*layer.grad)[i];
    if (g == 0.0) continue;
    const double s_abs = std::abs(g) * static_cast<double>(layer.scale);
    // The largest achievable first-order gain for this weight is via the
    // sign bit (|dq| = 128); prune weights that cannot beat the current
    // k-th best even with the sign bit.
    if (best.size() == k && s_abs * 128.0 <= best.back().estimated_gain) continue;
    for (u32 bit = layer.lowest_bit; bit < 8; ++bit) {
      const double gain = flip_gain(layer, i, bit);
      if (gain <= 0.0) continue;
      if (best.size() == k && gain <= best.back().estimated_gain) continue;
      BitLocation loc{layer_index, i, bit};
      if (skip.contains(loc)) continue;
      // Insert keeping `best` sorted descending by gain.
      FlipCandidate cand{loc, gain};
      auto pos = std::upper_bound(best.begin(), best.end(), cand,
                                  [](const FlipCandidate& a, const FlipCandidate& b) {
                                    return a.estimated_gain > b.estimated_gain;
                                  });
      best.insert(pos, cand);
      if (best.size() > k) best.pop_back();
    }
  }
  return best;
}

}  // namespace dnnd::quant
