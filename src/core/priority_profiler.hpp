// Priority Protection Mechanism (paper Sec. 4): the defender runs the SAME
// progressive bit-search an attacker would, on its own copy of the model,
// for multiple rounds. Round R_c flips bits until accuracy reaches the
// random-guess level, records them, restores the model, and excludes them
// from round R_{c+1}. The union of all rounds -- in round order -- is the
// priority list of vulnerable bits; their DRAM rows become the defender's
// target rows. More rounds = more secured bits = stronger protection
// (Fig. 9's SB knob).
#pragma once

#include "attack/bfa.hpp"
#include "mapping/weight_mapping.hpp"

namespace dnnd::core {

struct ProfilerConfig {
  usize rounds = 4;
};

struct ProfileResult {
  /// Vulnerable bits in priority order (round 1 flips first).
  std::vector<quant::BitLocation> priority_bits;
  /// Number of bits contributed by each round.
  std::vector<usize> round_sizes;

  [[nodiscard]] usize total_bits() const { return priority_bits.size(); }

  /// The first `n` bits as a skip/secured set (n = 0 -> all).
  [[nodiscard]] quant::BitSkipSet secured_set(usize n = 0) const;
};

class PriorityProfiler {
 public:
  /// The profiler owns a scratch copy workflow over `qm`: it flips bits
  /// during the search but restores the initial snapshot after every round
  /// and at the end, leaving the model unmodified.
  PriorityProfiler(quant::QuantizedModel& qm, nn::Tensor attack_x, std::vector<u32> attack_y,
                   ProfilerConfig cfg = {});

  /// Runs the multi-round profiling (paper Algorithm: flips are committed
  /// within a round and restored between rounds).
  ProfileResult profile();

  /// Profiles the exact trajectory of a *fully blocked* adaptive attacker:
  /// each selection runs the progressive search on the clean model with all
  /// previously profiled bits excluded -- the state an attacker sees when
  /// every attempt is refreshed away. Protecting this set makes the white-box
  /// attack propose only already-secured bits, so nothing ever lands.
  ProfileResult profile_blocked_attacker(usize n_bits);

  /// Maps profiled bits to the (deduplicated) DRAM rows holding them, in
  /// priority order -- the defender's target rows. Limited to the first
  /// `max_bits` bits when non-zero.
  static std::vector<dram::RowAddr> target_rows(const ProfileResult& result,
                                                const mapping::WeightMapping& mapping,
                                                usize max_bits = 0);

 private:
  quant::QuantizedModel& qm_;
  nn::Tensor attack_x_;
  std::vector<u32> attack_y_;
  ProfilerConfig cfg_;
};

}  // namespace dnnd::core
