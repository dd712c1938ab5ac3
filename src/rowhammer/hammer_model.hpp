// RowHammer fault model.
//
// Physical basis (Kim et al. ISCA'14, revisited ISCA'20): repeatedly
// activating an aggressor row disturbs the charge of physically adjacent
// victim rows; once the accumulated activation count since the victim's last
// refresh crosses a per-cell threshold, susceptible cells flip toward their
// discharged value (true-cells 1->0, anti-cells 0->1).
//
// Model: each cell (row, col, bit) is vulnerable with probability
// p_vulnerable (decided by a seeded hash, so the susceptibility map is a
// stable property of the "chip"); each vulnerable cell draws a personal
// threshold in [T_RH, (1+spread) * T_RH]. A per-row disturbance counter
// accumulates adjacent-aggressor ACTs and resets whenever the row is
// restored. This reproduces exactly the attacker workflow the paper assumes:
// memory templating discovers flippable cells, massaging places victim data
// on them, and hammering past T_RH flips them -- unless a defense refreshes
// the victim first.
//
// Bookkeeping: one flat slot per physical row (indexed by flat_row_id) holds
// the disturbance, the disturbance at which the flip scan must next run, and
// the scan cursor. No cell threshold is below T_RH, so a row's sorted cell
// list is built only when its disturbance first reaches T_RH; below that an
// ACT costs one increment and one compare per victim. Any single cell is
// answered straight from its two hashes (cell_info), without building a row.
#pragma once

#include <optional>
#include <vector>

#include "dram/dram_device.hpp"
#include "sys/rng.hpp"

namespace dnnd::rowhammer {

/// Tunables of the fault model.
struct HammerModelConfig {
  double p_vulnerable = 0.03;    ///< fraction of cells that can flip at all
  double threshold_spread = 0.5; ///< per-cell threshold in [T_RH, (1+spread)*T_RH]; >= 0
  u64 seed = 0xD15EA5Eu;         ///< susceptibility map seed ("chip identity")
  bool directional = true;       ///< true-/anti-cell behaviour (flip only from charged state)
};

/// One vulnerable cell of a row, ground truth view (tests & templating oracle).
struct VulnerableCell {
  usize col = 0;          ///< byte within the row
  u32 bit = 0;            ///< bit within the byte
  u64 threshold = 0;      ///< disturbance count at which it flips
  bool one_to_zero = true;///< true-cell (1->0) vs anti-cell (0->1)
};

/// Listens to a DramDevice and injects RowHammer bit flips.
class HammerModel final : public dram::RowEventListener {
 public:
  /// Throws std::invalid_argument when cfg.threshold_spread is negative (or
  /// NaN): every cell threshold must be at least T_RH.
  HammerModel(dram::DramDevice& device, HammerModelConfig cfg);
  ~HammerModel() override;

  HammerModel(const HammerModel&) = delete;
  HammerModel& operator=(const HammerModel&) = delete;

  // RowEventListener
  void on_activate(const dram::RowAddr& row, Picoseconds now) override;
  void on_restore(const dram::RowAddr& row, Picoseconds now, dram::RestoreKind kind) override;

  /// Current disturbance (adjacent ACTs since last restore) of a row.
  [[nodiscard]] u64 disturbance(const dram::RowAddr& row) const;

  /// Ground-truth susceptibility of a row, sorted by ascending threshold
  /// (the order in which hammering flips them). Computed from the hashes on
  /// every call (row_bytes x 8 of them) and never stored. Attackers should
  /// not call this directly -- they discover the same information through
  /// HammerAttacker templating; tests use it as oracle.
  [[nodiscard]] std::vector<VulnerableCell> vulnerable_cells(const dram::RowAddr& row) const;

  /// Ground truth for one cell: its entry in vulnerable_cells(row), or
  /// nullopt when it cannot flip. O(1): two hashes, no row is built.
  [[nodiscard]] std::optional<VulnerableCell> cell_info(const dram::RowAddr& row, usize col,
                                                        u32 bit) const;

  /// Total flips injected by this model.
  [[nodiscard]] u64 flips_injected() const { return flips_injected_; }

  [[nodiscard]] const HammerModelConfig& config() const { return cfg_; }

 private:
  static constexpr u32 kUnbuilt = ~u32{0};

  /// Per-row state, one per physical row.
  struct RowSlot {
    u64 disturbance = 0;
    u64 next_threshold = 0;  ///< disturbance at which the flip scan next runs
    u32 cursor = 0;          ///< first cell not yet scanned since the last restore
    u32 cells = kUnbuilt;    ///< index into built_, once the row reached T_RH
  };
  /// The sorted cell list of a row whose disturbance has reached T_RH.
  struct RowCells {
    std::vector<VulnerableCell> cells;  ///< sorted by threshold
    std::vector<bool> discharged;       ///< cell flipped & not yet rewritten
    bool any_discharged = false;
  };

  [[nodiscard]] std::optional<VulnerableCell> cell_at(u64 row_id, usize col, u32 bit) const;
  void bump(u64 row_id, const dram::RowAddr& victim);
  void flip_due_cells(RowSlot& slot, const dram::RowAddr& victim);

  dram::DramDevice& device_;
  HammerModelConfig cfg_;
  std::vector<RowSlot> rows_;
  std::vector<RowCells> built_;
  u64 flips_injected_ = 0;
};

}  // namespace dnnd::rowhammer
