// ProtectedSystem: the full victim stack. A quantized model's weights live in
// simulated DRAM (via WeightMapping); inference reads them back from the
// device, so RowHammer flips -- and the defense's success in preventing them
// -- propagate to accuracy. The attacker runs the BFA search offline on its
// white-box copy and carries each chosen flip out through DeepHammerAttack
// (white_box_step), while the installed mitigation interleaves its
// maintenance through the post-ACT hook.
#pragma once

#include <memory>
#include <optional>

#include "attack/bfa.hpp"
#include "attack/deephammer.hpp"
#include "core/dnn_defender.hpp"
#include "core/priority_profiler.hpp"

namespace dnnd::system {

struct ProtectedSystemConfig {
  dram::DramConfig dram = dram::DramConfig::sim_default();
  rowhammer::HammerModelConfig hammer{};
  mapping::MappingConfig mapping{};
  attack::DeepHammerConfig deephammer{};
  u64 seed = 0x5E55;
};

/// Outcome of a full-stack white-box attack campaign.
struct SystemAttackResult {
  usize attempts = 0;  ///< flip attempts carried out through DRAM
  usize landed = 0;    ///< flips that materialized in the weights
  usize blocked = 0;   ///< attempts defeated by the defense
  double initial_accuracy = 0.0;
  double final_accuracy = 0.0;
};

class ProtectedSystem {
 public:
  /// Plans the weight layout, uploads the quantized weights into DRAM, and
  /// wires the attack machinery. No defense is active initially.
  ProtectedSystem(quant::QuantizedModel& qm, ProtectedSystemConfig cfg = {});

  // ----- component access -----
  [[nodiscard]] dram::DramDevice& device() { return *device_; }
  [[nodiscard]] dram::RowRemapper& remapper() { return *remap_; }
  [[nodiscard]] rowhammer::HammerModel& hammer_model() { return *hammer_; }
  [[nodiscard]] const mapping::WeightMapping& mapping() const { return *mapping_; }
  [[nodiscard]] quant::QuantizedModel& qm() { return qm_; }
  [[nodiscard]] attack::DeepHammerAttack& deephammer() { return *deephammer_; }

  // ----- defense installation -----

  /// Installs DNN-Defender protecting the rows holding the first `max_bits`
  /// profiled bits (0 = all). Non-target rows = remaining weight rows.
  /// Returns the defender for inspection.
  core::DnnDefender& install_dnn_defender(const core::ProfileResult& profile,
                                          usize max_bits = 0,
                                          core::DnnDefenderConfig cfg = {});

  /// Installs an externally-constructed baseline mitigation (RRS/SRS/SHADOW/
  /// counter-based). The system takes ownership and pumps its tick().
  void install_mitigation(std::unique_ptr<defense::Mitigation> mitigation);

  /// Removes any active mitigation.
  void clear_mitigation();

  [[nodiscard]] defense::Mitigation* mitigation() { return mitigation_.get(); }
  [[nodiscard]] core::DnnDefender* defender() { return defender_; }

  // ----- attack & sync -----

  /// Carries one bit flip attempt through the DRAM substrate, then syncs the
  /// model from DRAM (authoritative state).
  attack::FlipAttempt attack_bit(const quant::BitLocation& loc);

  /// Re-reads all weights from DRAM into the quantized model.
  void sync_model_from_dram();

  /// Re-uploads the quantized model into DRAM (e.g., after software repair).
  void upload_model_to_dram();

  /// Advances the device clock to `target` (no-op if the device is already
  /// there or beyond) and pumps the installed mitigation's tick() once so
  /// time-based maintenance (refresh-window bookkeeping, scheduled swaps)
  /// observes the new time even when no DRAM command fired the post-ACT
  /// hook. Returns true if a mitigation ticked. This is the serving bench's
  /// bridge between virtual batch-close times and the defense schedule.
  bool advance_time_to(Picoseconds target);

  /// All weight bits residing in the defender's target rows -- the Secured
  /// Bits set the adaptive white-box attacker must skip.
  [[nodiscard]] quant::BitSkipSet secured_bits() const;

  /// One white-box attack step (paper Sec. 5.2): `search` proposes a flip
  /// not in `blocked` on the synced model, its local commit is undone (DRAM
  /// is authoritative), the flip is carried out through attack_bit, and a
  /// failed attempt's bit joins `blocked`. nullopt when the search has no
  /// candidate left. `search` must have been built on this system's qm().
  std::optional<attack::FlipAttempt> white_box_step(attack::ProgressiveBitSearch& search,
                                                    quant::BitSkipSet& blocked);

  /// Full-stack white-box BFA campaign: white_box_step with a default
  /// ProgressiveBitSearch on (attack_x, attack_y) until the accuracy on
  /// (eval_x, eval_y) is <= stop_accuracy, the attempt budget is spent, or
  /// the search has no candidate left.
  SystemAttackResult run_white_box_attack(const nn::Tensor& attack_x,
                                          const std::vector<u32>& attack_y,
                                          const nn::Tensor& eval_x,
                                          const std::vector<u32>& eval_y,
                                          usize max_attempts, double stop_accuracy);

 private:
  void install_hook();

  quant::QuantizedModel& qm_;
  ProtectedSystemConfig cfg_;
  std::unique_ptr<dram::DramDevice> device_;
  std::unique_ptr<dram::RowRemapper> remap_;
  std::unique_ptr<rowhammer::HammerModel> hammer_;
  std::unique_ptr<mapping::WeightMapping> mapping_;
  std::unique_ptr<attack::DeepHammerAttack> deephammer_;
  std::unique_ptr<defense::Mitigation> mitigation_;
  core::DnnDefender* defender_ = nullptr;  ///< non-null iff mitigation_ is DD
};

}  // namespace dnnd::system
