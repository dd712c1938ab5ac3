// Random bit-flip attack baseline (the paper's Fig. 1(b) comparison): flips
// uniformly-random weight bits. Orders of magnitude less effective than the
// targeted BFA -- the gap DNN-Defender aims to restore. Its accuracy curve
// is attack::trace_accuracy stepping flip_one.
#pragma once

#include "quant/bit_gradient.hpp"
#include "sys/rng.hpp"

namespace dnnd::attack {

class RandomBitAttack {
 public:
  RandomBitAttack(quant::QuantizedModel& qm, sys::Rng rng) : qm_(qm), rng_(rng) {}

  /// Flips one uniformly random bit (over all weight bits), skipping `skip`.
  quant::BitLocation flip_one(const quant::BitSkipSet& skip = {});

 private:
  quant::QuantizedModel& qm_;
  sys::Rng rng_;
};

}  // namespace dnnd::attack
