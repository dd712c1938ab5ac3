#include "attack/random_attack.hpp"

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

}  // namespace dnnd::attack
