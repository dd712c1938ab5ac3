// DeepHammer-style attack executor (Yao et al., USENIX Sec'20): carries a
// BFA-chosen bit flip out *through the DRAM substrate* instead of assuming
// it lands. One flip attempt =
//   1. locate the weight byte via the mapping file (white-box threat model),
//   2. memory massaging: relocate the victim row into a physical frame whose
//      cell at the target (col, bit) is flippable in the needed direction
//      (the in-simulator equivalent of DeepHammer's page-cache massaging),
//   3. double-sided hammering of the frame's neighbours until the bit flips
//      or the activation budget is exhausted -- while any active defense
//      interleaves its swaps via the post-ACT hook.
// The defense wins by refreshing/relocating the victim before any cell
// threshold is reached; the attacker tracks relocations (complete white-box)
// and re-massages, but its accumulated disturbance is gone.
#pragma once

#include "mapping/weight_mapping.hpp"
#include "rowhammer/attacker.hpp"

namespace dnnd::attack {

struct DeepHammerConfig {
  u64 act_budget_multiplier = 8;  ///< per-attempt budget = mult * T_RH ACTs
  u64 check_interval = 256;       ///< verify the target bit every N ACTs
  Picoseconds massage_cost = 500'000'000;  ///< 0.5 ms page-relocation cost
  u64 seed = 0xDEE9;
};

/// Outcome of one flip attempt.
struct FlipAttempt {
  quant::BitLocation target;
  bool success = false;
  bool massaged = false;    ///< a frame with a matching flippable cell was found
  u32 relocations_chased = 0;  ///< times the defense moved the row mid-attack
  u64 activations = 0;
  Picoseconds elapsed = 0;
};

class DeepHammerAttack {
 public:
  DeepHammerAttack(dram::DramDevice& device, const rowhammer::HammerModel& model,
                   const mapping::WeightMapping& mapping, dram::RowRemapper& remap,
                   DeepHammerConfig cfg = {});

  /// The underlying hammer driver (the protected system installs the
  /// defense's post-ACT hook here).
  [[nodiscard]] rowhammer::HammerAttacker& driver() { return attacker_; }

  /// Attempts to flip `target` in DRAM. The model's quantized codes are NOT
  /// updated -- callers read back via WeightMapping::download.
  FlipAttempt attempt_flip(const quant::BitLocation& target);

  [[nodiscard]] const DeepHammerConfig& config() const { return cfg_; }

 private:
  /// Finds a physical frame (not holding weights, not reserved) whose cell at
  /// (col, bit) flips in the direction needed to flip value `bit_is_set`.
  /// Stands in for the attacker's own template cache: tests verify that
  /// HammerAttacker::template_rows discovers the same cells.
  std::optional<dram::RowAddr> find_flippable_frame(const dram::RowAddr& near, usize col,
                                                    u32 bit, bool bit_is_set) const;

  /// Relocates logical row `logical` into physical frame `frame` by swapping
  /// data (timed writes) and updating the remapper.
  void massage_into(const dram::RowAddr& logical, const dram::RowAddr& frame);

  dram::DramDevice& device_;
  const rowhammer::HammerModel& model_;
  const mapping::WeightMapping& mapping_;
  dram::RowRemapper& remap_;
  DeepHammerConfig cfg_;
  rowhammer::HammerAttacker attacker_;
  sys::Rng rng_;
};

}  // namespace dnnd::attack
