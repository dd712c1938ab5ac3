#include "rowhammer/hammer_model.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dnnd::rowhammer {

using dram::RowAddr;

namespace {
constexpr u64 kNever = std::numeric_limits<u64>::max();
}  // namespace

HammerModel::HammerModel(dram::DramDevice& device, HammerModelConfig cfg)
    : device_(device), cfg_(cfg) {
  // The lazy build below relies on T_RH being a lower bound of every cell
  // threshold; a negative spread would also cast a negative double to u64.
  if (!(cfg_.threshold_spread >= 0.0)) {
    throw std::invalid_argument("HammerModel: threshold_spread must be >= 0");
  }
  RowSlot unbuilt;
  unbuilt.next_threshold = device_.config().t_rh;
  rows_.assign(static_cast<usize>(device_.config().geo.total_rows()), unbuilt);
  device_.add_listener(this);
}

HammerModel::~HammerModel() { device_.remove_listener(this); }

std::optional<VulnerableCell> HammerModel::cell_at(u64 row_id, usize col, u32 bit) const {
  const u64 h = sys::hash_combine(cfg_.seed, row_id, col, bit);
  if (sys::hash_to_unit(h) >= cfg_.p_vulnerable) return std::nullopt;
  const u64 t_rh = device_.config().t_rh;
  VulnerableCell cell;
  cell.col = col;
  cell.bit = bit;
  // A second, independent hash decides the personal threshold and the
  // flip direction so they are uncorrelated with the selection draw.
  const u64 h2 = sys::hash_combine(h, 0x7e57ab1eULL);
  cell.threshold = t_rh + static_cast<u64>(sys::hash_to_unit(h2) * cfg_.threshold_spread *
                                           static_cast<double>(t_rh));
  cell.one_to_zero = (h2 & 1) != 0;
  return cell;
}

std::vector<VulnerableCell> HammerModel::vulnerable_cells(const RowAddr& row) const {
  const auto& geo = device_.config().geo;
  const u64 rid = flat_row_id(geo, row);
  std::vector<VulnerableCell> cells;
  for (usize col = 0; col < geo.row_bytes; ++col) {
    for (u32 bit = 0; bit < 8; ++bit) {
      if (const auto cell = cell_at(rid, col, bit)) cells.push_back(*cell);
    }
  }
  std::sort(cells.begin(), cells.end(), [](const VulnerableCell& a, const VulnerableCell& b) {
    return a.threshold < b.threshold;
  });
  return cells;
}

std::optional<VulnerableCell> HammerModel::cell_info(const RowAddr& row, usize col,
                                                     u32 bit) const {
  const auto& geo = device_.config().geo;
  if (col >= geo.row_bytes || bit >= 8) return std::nullopt;
  return cell_at(flat_row_id(geo, row), col, bit);
}

void HammerModel::flip_due_cells(RowSlot& slot, const RowAddr& victim) {
  if (slot.cells == kUnbuilt) {
    slot.cells = static_cast<u32>(built_.size());
    RowCells& fresh = built_.emplace_back();
    fresh.cells = vulnerable_cells(victim);
    fresh.discharged.assign(fresh.cells.size(), false);
  }
  RowCells& rc = built_[slot.cells];
  while (slot.cursor < rc.cells.size() && rc.cells[slot.cursor].threshold <= slot.disturbance) {
    const usize i = slot.cursor++;
    if (rc.discharged[i]) continue;
    const VulnerableCell& cell = rc.cells[i];
    const u8 value = device_.peek(victim, cell.col);
    const bool bit_set = (value >> cell.bit) & 1;
    if (cfg_.directional) {
      // A cell only leaks toward its discharged state.
      if (cell.one_to_zero && !bit_set) continue;
      if (!cell.one_to_zero && bit_set) continue;
    }
    device_.force_flip_bit(victim, cell.col, cell.bit);
    rc.discharged[i] = true;
    rc.any_discharged = true;
    flips_injected_ += 1;
  }
  slot.next_threshold = slot.cursor < rc.cells.size() ? rc.cells[slot.cursor].threshold : kNever;
}

void HammerModel::bump(u64 row_id, const RowAddr& victim) {
  RowSlot& slot = rows_[row_id];
  if (++slot.disturbance >= slot.next_threshold) flip_due_cells(slot, victim);
}

void HammerModel::on_activate(const RowAddr& row, Picoseconds /*now*/) {
  const auto& cfg = device_.config();
  const u64 rid = flat_row_id(cfg.geo, row);
  // Disturb neighbours within the blast radius, confined to the subarray
  // (sense-amplifier stripes isolate disturbance across subarray boundaries).
  for (u32 d = 1; d <= cfg.blast_radius; ++d) {
    if (row.row >= d) {
      bump(rid - d, RowAddr{row.bank, row.subarray, row.row - d});
    }
    if (row.row + d < cfg.geo.rows_per_subarray) {
      bump(rid + d, RowAddr{row.bank, row.subarray, row.row + d});
    }
  }
}

void HammerModel::on_restore(const RowAddr& row, Picoseconds /*now*/, dram::RestoreKind kind) {
  RowSlot& slot = rows_[flat_row_id(device_.config().geo, row)];
  slot.disturbance = 0;
  slot.cursor = 0;
  if (slot.cells == kUnbuilt) return;
  RowCells& rc = built_[slot.cells];
  slot.next_threshold = rc.cells.empty() ? kNever : rc.cells.front().threshold;
  if (kind == dram::RestoreKind::kRewrite && rc.any_discharged) {
    // Fresh data recharges every cell; previously-flipped cells can flip again.
    std::fill(rc.discharged.begin(), rc.discharged.end(), false);
    rc.any_discharged = false;
  }
}

u64 HammerModel::disturbance(const RowAddr& row) const {
  return rows_[flat_row_id(device_.config().geo, row)].disturbance;
}

}  // namespace dnnd::rowhammer
