#include "attack/deephammer.hpp"

#include <array>

namespace dnnd::attack {

using dram::RowAddr;

DeepHammerAttack::DeepHammerAttack(dram::DramDevice& device,
                                   const rowhammer::HammerModel& model,
                                   const mapping::WeightMapping& mapping,
                                   dram::RowRemapper& remap, DeepHammerConfig cfg)
    : device_(device),
      model_(model),
      mapping_(mapping),
      remap_(remap),
      cfg_(cfg),
      attacker_(device, sys::Rng(cfg.seed)),
      rng_(cfg.seed ^ 0xF00DULL) {}

namespace {
/// Does `cell` flip a bit that currently reads `bit_is_set`?
bool direction_matches(const rowhammer::VulnerableCell& cell, bool bit_is_set) {
  return cell.one_to_zero == bit_is_set;
}
}  // namespace

std::optional<RowAddr> DeepHammerAttack::find_flippable_frame(const RowAddr& near, usize col,
                                                              u32 bit,
                                                              bool bit_is_set) const {
  const auto& geo = device_.config().geo;
  const u32 reserved = mapping_.config().reserved_rows_per_subarray;
  auto usable = [&](const RowAddr& phys) {
    if (phys.row == 0 || phys.row + 1 >= geo.rows_per_subarray) return false;  // need neighbours
    if (phys.row >= geo.rows_per_subarray - reserved) return false;            // defense region
    const RowAddr logical = remap_.to_logical(phys);
    return mapping_.weights_in_row(logical) == 0;  // must not hold victim weights
  };
  auto probe = [&](const RowAddr& phys) -> bool {
    if (!usable(phys)) return false;
    const auto info = model_.cell_info(phys, col, bit);
    return info.has_value() && direction_matches(*info, bit_is_set);
  };
  // Same subarray first (cheapest massaging), then the rest of the device.
  for (u32 r = 1; r + 1 < geo.rows_per_subarray; ++r) {
    const RowAddr cand{near.bank, near.subarray, r};
    if (probe(cand)) return cand;
  }
  for (u32 b = 0; b < geo.banks; ++b) {
    for (u32 s = 0; s < geo.subarrays_per_bank; ++s) {
      if (b == near.bank && s == near.subarray) continue;
      for (u32 r = 1; r + 1 < geo.rows_per_subarray; ++r) {
        const RowAddr cand{b, s, r};
        if (probe(cand)) return cand;
      }
    }
  }
  return std::nullopt;
}

void DeepHammerAttack::massage_into(const RowAddr& logical, const RowAddr& frame) {
  const RowAddr phys = remap_.to_physical(logical);
  if (phys == frame) return;
  const RowAddr displaced_logical = remap_.to_logical(frame);
  // Swap the two rows' data with ordinary (timed) writes, as a user-space
  // page relocation would, then record the new backing.
  std::vector<u8> victim_data(device_.peek_row(phys).begin(), device_.peek_row(phys).end());
  std::vector<u8> frame_data(device_.peek_row(frame).begin(), device_.peek_row(frame).end());
  device_.write_row(frame, victim_data);
  device_.write_row(phys, frame_data);
  remap_.swap_logical(logical, displaced_logical);
  device_.advance(cfg_.massage_cost);
}

FlipAttempt DeepHammerAttack::attempt_flip(const quant::BitLocation& target) {
  FlipAttempt attempt;
  attempt.target = target;
  const mapping::Placement place = mapping_.locate(target.layer, target.index);
  const RowAddr logical = place.row;
  const usize col = place.col;
  const u32 bit = target.bit;

  RowAddr phys = remap_.to_physical(logical);
  const bool original_value = (device_.peek(phys, col) >> bit) & 1;

  // Memory massaging: make sure the victim byte sits on a flippable cell of
  // an interior row (double-sided hammering needs both neighbours; an edge
  // row, where a defense may have moved the victim, is massaged away).
  const auto& geo = device_.config().geo;
  auto ensure_flippable = [&]() -> bool {
    phys = remap_.to_physical(logical);
    const bool interior = phys.row > 0 && phys.row + 1 < geo.rows_per_subarray;
    const auto info = model_.cell_info(phys, col, bit);
    if (interior && info.has_value() && direction_matches(*info, original_value)) return true;
    const auto frame = find_flippable_frame(phys, col, bit, original_value);
    if (!frame.has_value()) return false;
    massage_into(logical, *frame);
    attempt.massaged = true;
    phys = remap_.to_physical(logical);
    return true;
  };
  if (!ensure_flippable()) return attempt;

  const u64 budget = cfg_.act_budget_multiplier * device_.config().t_rh;
  const Picoseconds t0 = device_.now();
  u64 used = 0;
  while (used < budget) {
    const RowAddr current = remap_.to_physical(logical);
    if (!(current == phys)) {
      // The defense relocated the row mid-attack; the white-box attacker
      // tracks it and re-massages if the new frame is not flippable.
      attempt.relocations_chased += 1;
      if (!ensure_flippable()) break;
    }
    // Double-sided aggressors around the current (interior) frame.
    const std::array<RowAddr, 2> aggressors{RowAddr{phys.bank, phys.subarray, phys.row - 1},
                                            RowAddr{phys.bank, phys.subarray, phys.row + 1}};
    const u64 chunk = std::min<u64>(cfg_.check_interval, budget - used);
    attacker_.hammer(aggressors, chunk);
    used += chunk;
    const RowAddr check = remap_.to_physical(logical);
    const bool now_value = (device_.peek(check, col) >> bit) & 1;
    if (now_value != original_value) {
      attempt.success = true;
      break;
    }
  }
  attempt.activations = used;
  attempt.elapsed = device_.now() - t0;
  return attempt;
}

}  // namespace dnnd::attack
