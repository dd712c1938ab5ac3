#include "system/protected_system.hpp"

#include <algorithm>

namespace dnnd::system {

using dram::RowAddr;

ProtectedSystem::ProtectedSystem(quant::QuantizedModel& qm, ProtectedSystemConfig cfg)
    : qm_(qm), cfg_(cfg) {
  cfg_.mapping.reserved_rows_per_subarray =
      std::max<u32>(cfg_.mapping.reserved_rows_per_subarray, 1);
  device_ = std::make_unique<dram::DramDevice>(cfg_.dram);
  remap_ = std::make_unique<dram::RowRemapper>(cfg_.dram.geo);
  hammer_ = std::make_unique<rowhammer::HammerModel>(*device_, cfg_.hammer);
  mapping_ = std::make_unique<mapping::WeightMapping>(qm_, cfg_.dram, cfg_.mapping);
  mapping_->upload(qm_, *device_, *remap_);
  deephammer_ =
      std::make_unique<attack::DeepHammerAttack>(*device_, *hammer_, *mapping_, *remap_,
                                                 cfg_.deephammer);
}

void ProtectedSystem::install_hook() {
  if (mitigation_) {
    defense::Mitigation* m = mitigation_.get();
    deephammer_->driver().set_post_act_hook([m] { m->tick(); });
  } else {
    deephammer_->driver().set_post_act_hook({});
  }
}

core::DnnDefender& ProtectedSystem::install_dnn_defender(const core::ProfileResult& profile,
                                                         usize max_bits,
                                                         core::DnnDefenderConfig cfg) {
  auto dd = std::make_unique<core::DnnDefender>(*device_, *remap_, cfg);
  std::vector<RowAddr> targets = core::PriorityProfiler::target_rows(profile, *mapping_,
                                                                     max_bits);
  // Non-target victims: every other weight row, in layout order.
  std::vector<RowAddr> non_targets;
  for (const RowAddr& row : mapping_->weight_rows()) {
    if (std::find(targets.begin(), targets.end(), row) == targets.end()) {
      non_targets.push_back(row);
    }
  }
  dd->set_protected_rows(std::move(targets), std::move(non_targets));
  defender_ = dd.get();
  mitigation_ = std::move(dd);
  install_hook();
  return *defender_;
}

void ProtectedSystem::install_mitigation(std::unique_ptr<defense::Mitigation> mitigation) {
  defender_ = nullptr;
  mitigation_ = std::move(mitigation);
  install_hook();
}

void ProtectedSystem::clear_mitigation() {
  defender_ = nullptr;
  mitigation_.reset();
  install_hook();
}

attack::FlipAttempt ProtectedSystem::attack_bit(const quant::BitLocation& loc) {
  attack::FlipAttempt attempt = deephammer_->attempt_flip(loc);
  sync_model_from_dram();
  return attempt;
}

void ProtectedSystem::sync_model_from_dram() {
  mapping_->download(qm_, *device_, *remap_);
}

void ProtectedSystem::upload_model_to_dram() {
  mapping_->upload(qm_, *device_, *remap_);
}

bool ProtectedSystem::advance_time_to(Picoseconds target) {
  if (target > device_->now()) device_->advance(target - device_->now());
  if (!mitigation_) return false;
  mitigation_->tick();
  return true;
}

quant::BitSkipSet ProtectedSystem::secured_bits() const {
  if (defender_ == nullptr) return {};
  return mapping_->bits_in_rows(defender_->targets());
}

std::optional<attack::FlipAttempt> ProtectedSystem::white_box_step(
    attack::ProgressiveBitSearch& search, quant::BitSkipSet& blocked) {
  // Offline proposal on the attacker's copy (== current synced state).
  const auto rec = search.step(blocked);
  if (!rec.has_value()) return std::nullopt;
  qm_.flip(rec->loc);  // undo the search's commit; DRAM is authoritative
  attack::FlipAttempt attempt = attack_bit(rec->loc);
  if (!attempt.success) blocked.insert(rec->loc);
  return attempt;
}

SystemAttackResult ProtectedSystem::run_white_box_attack(
    const nn::Tensor& attack_x, const std::vector<u32>& attack_y, const nn::Tensor& eval_x,
    const std::vector<u32>& eval_y, usize max_attempts, double stop_accuracy) {
  SystemAttackResult result;
  result.initial_accuracy = qm_.model().evaluate_batch(eval_x, eval_y).accuracy;
  result.final_accuracy = result.initial_accuracy;

  attack::ProgressiveBitSearch search(qm_, attack_x, attack_y);
  quant::BitSkipSet learned_blocked;
  while (result.attempts < max_attempts) {
    const auto attempt = white_box_step(search, learned_blocked);
    if (!attempt.has_value()) break;
    result.attempts += 1;
    if (attempt->success) {
      result.landed += 1;
    } else {
      result.blocked += 1;
    }
    // The DRAM sync in attack_bit rewrote only the codes that actually
    // changed (set_q no-ops on identical values), so a blocked attempt
    // leaves the forward cache fully clean and this measurement costs almost
    // nothing; the incremental helper falls back to a full pass when the
    // cache sits on the attack batch instead.
    result.final_accuracy = qm_.model().evaluate_batch_incremental(eval_x, eval_y).accuracy;
    if (result.final_accuracy <= stop_accuracy) break;
  }
  return result;
}

}  // namespace dnnd::system
