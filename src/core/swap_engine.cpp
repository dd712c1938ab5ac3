#include "core/swap_engine.hpp"

#include <cassert>

namespace dnnd::core {

using dram::RowAddr;

SwapEngine::SwapEngine(dram::DramDevice& device, dram::RowRemapper& remap, u32 reserved_rows)
    : device_(device),
      remap_(remap),
      reserved_rows_(reserved_rows == 0 ? 1 : reserved_rows),
      staged_(static_cast<usize>(device.config().geo.banks) *
              device.config().geo.subarrays_per_bank) {
  assert(reserved_rows_ < device_.config().geo.rows_per_subarray);
}

u32 SwapEngine::reserved_row_index() const {
  return device_.config().geo.rows_per_subarray - 1;
}

u32 SwapEngine::reserved_base() const {
  return device_.config().geo.rows_per_subarray - reserved_rows_;
}

usize SwapEngine::subarray_slot(u32 bank, u32 subarray) const {
  return static_cast<usize>(bank) * device_.config().geo.subarrays_per_bank + subarray;
}

u32 SwapEngine::protect(const RowAddr& target_logical, const RowAddr* non_target_logical,
                        sys::Rng& rng) {
  const RowAddr p_target = remap_.to_physical(target_logical);
  const u32 bank = p_target.bank;
  const u32 sub = p_target.subarray;
  const u32 res = reserved_row_index();
  std::optional<RowAddr>& staged = staged_[subarray_slot(bank, sub)];
  u32 aaps = 0;

  // --- choose the "random row": a staged non-target when available ---
  RowAddr random_logical;
  bool staged_hit = false;
  if (staged.has_value()) {
    const RowAddr p_staged = remap_.to_physical(*staged);
    // The staged row must still live in this subarray (attacker massaging or
    // other defenses may have moved it) and must not be the target itself.
    if (p_staged.bank == bank && p_staged.subarray == sub && p_staged.row < reserved_base() &&
        !(*staged == target_logical)) {
      random_logical = *staged;
      staged_hit = true;
    }
    staged.reset();
  }
  if (!staged_hit) {
    // Cold path: draw a fresh random row in this subarray (paper step 1).
    u32 r;
    do {
      r = static_cast<u32>(rng.uniform(reserved_base()));
    } while (r == p_target.row);
    random_logical = remap_.to_logical(RowAddr{bank, sub, r});
    device_.rowclone_fpm(bank, sub, r, res);  // step 1: random -> reserved
    ++aaps;
    stats_.cold_swaps += 1;
  } else {
    stats_.staged_swaps += 1;
  }

  const RowAddr p_random = remap_.to_physical(random_logical);
  assert(p_random.bank == bank && p_random.subarray == sub);

  // step 2: target -> random row's position (refreshes the target's cells by
  // activation and moves the data the attacker is aiming at).
  device_.rowclone_fpm(bank, sub, p_target.row, p_random.row);
  ++aaps;
  // step 3: reserved (holding the random row's data) -> target's old position.
  device_.rowclone_fpm(bank, sub, res, p_target.row);
  ++aaps;
  remap_.swap_logical(target_logical, random_logical);

  // step 4: stage the non-target row -- refresh + next swap's random row.
  if (non_target_logical != nullptr) {
    const RowAddr p_nt = remap_.to_physical(*non_target_logical);
    if (p_nt.bank == bank && p_nt.subarray == sub && p_nt.row < reserved_base() &&
        !(*non_target_logical == target_logical)) {
      device_.rowclone_fpm(bank, sub, p_nt.row, res);
      ++aaps;
      staged = *non_target_logical;
    }
  }

  stats_.swaps += 1;
  stats_.aaps += aaps;
  return aaps;
}

}  // namespace dnnd::core
