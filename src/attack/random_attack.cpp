#include "attack/random_attack.hpp"

#include <stdexcept>

namespace dnnd::attack {

quant::BitLocation RandomBitAttack::flip_one(const quant::BitSkipSet& skip) {
  // Uniform over all eight bits of every code (flat index = weight * 8 + bit).
  const u64 total_bits = qm_.total_weights() * 8;
  for (;;) {
    u64 flat = rng_.uniform(total_bits);
    const u32 bit = static_cast<u32>(flat % 8);
    u64 widx = flat / 8;
    usize layer = 0;
    while (widx >= qm_.layer(layer).size()) {
      widx -= qm_.layer(layer).size();
      ++layer;
    }
    const quant::BitLocation loc{layer, static_cast<usize>(widx), bit};
    if (skip.contains(loc)) continue;
    qm_.flip(loc);
    return loc;
  }
}

RandomAttackResult RandomBitAttack::run(usize n_flips, const nn::Tensor& x,
                                        const std::vector<u32>& y, usize measure_every) {
  if (measure_every == 0) {
    // i % 0 below is undefined behavior, not "measure never".
    throw std::invalid_argument("random attack: measure_every must be nonzero");
  }
  RandomAttackResult result;
  // Every measurement is on the same batch: after the first full forward,
  // each one re-runs only the layers below the earliest flip since the last
  // measurement (byte-identical to a full evaluate_batch).
  result.accuracy_trace.push_back(qm_.model().evaluate_batch_incremental(x, y).accuracy);
  for (usize i = 1; i <= n_flips; ++i) {
    result.flips.push_back(flip_one());
    if (i % measure_every == 0 || i == n_flips) {
      result.accuracy_trace.push_back(qm_.model().evaluate_batch_incremental(x, y).accuracy);
    }
  }
  return result;
}

}  // namespace dnnd::attack
