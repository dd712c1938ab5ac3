// The four-step in-DRAM swap of Fig. 5 -- DNN-Defender's core primitive.
//
//   step 1: random row  -> reserved row   (RowClone AAP)
//   step 2: target row  -> random row's position
//   step 3: reserved    -> target row's old position
//   step 4: non-target  -> reserved row   (refreshes the non-target and
//           stages it as the *next* swap's random row, so step 1 of swap
//           n+1 overlaps step 4 of swap n -- Fig. 6 pipelining)
//
// Net effect per swap: the target row's cells are rewritten (disturbance
// reset), its physical position changes (the attacker must re-target and
// re-massage), the displaced row's data is preserved, and one non-target
// victim row gets a free refresh. Steady-state cost: 3 x T_AAP = 270 ns,
// the paper's T_swap.
#pragma once

#include <optional>
#include <vector>

#include "dram/dram_device.hpp"
#include "dram/row_remapper.hpp"
#include "sys/rng.hpp"

namespace dnnd::core {

struct SwapStats {
  u64 swaps = 0;          ///< completed four-step protections
  u64 aaps = 0;           ///< RowClone pairs issued
  u64 cold_swaps = 0;     ///< swaps that needed their own step 1 (no staging)
  u64 staged_swaps = 0;   ///< swaps that reused a staged non-target (pipelined)
};

class SwapEngine {
 public:
  /// `reserved_rows` rows at the top of each subarray form the reserved
  /// region; the engine uses the last row as its bounce buffer.
  SwapEngine(dram::DramDevice& device, dram::RowRemapper& remap, u32 reserved_rows = 1);

  /// Physical row index of the bounce buffer in every subarray.
  [[nodiscard]] u32 reserved_row_index() const;
  /// First row index of the reserved region (rows >= this are reserved).
  [[nodiscard]] u32 reserved_base() const;

  /// Performs one protection swap for `target_logical`. If `non_target_logical`
  /// is non-null and currently resides in the same physical subarray, it is
  /// refreshed and staged for the next swap (step 4). Returns the number of
  /// AAPs issued (3 when a staged row was available, 4 cold).
  u32 protect(const dram::RowAddr& target_logical, const dram::RowAddr* non_target_logical,
              sys::Rng& rng);

  /// Drops all staged state (e.g., at refresh-window boundaries).
  void reset_pipeline() { staged_.assign(staged_.size(), std::nullopt); }

  [[nodiscard]] const SwapStats& stats() const { return stats_; }

 private:
  [[nodiscard]] usize subarray_slot(u32 bank, u32 subarray) const;

  dram::DramDevice& device_;
  dram::RowRemapper& remap_;
  u32 reserved_rows_;
  /// Per (bank, subarray): the logical row whose data sits in that
  /// subarray's reserved buffer, staged as the next swap's random row.
  std::vector<std::optional<dram::RowAddr>> staged_;
  SwapStats stats_;
};

}  // namespace dnnd::core
