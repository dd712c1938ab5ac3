#include "dram/dram_device.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace dnnd::dram {

DramDevice::DramDevice(DramConfig cfg) : cfg_(cfg) {
  const u64 bytes = cfg_.geo.total_bytes();
  // Guard against accidentally instantiating the analytic 32GB geometry.
  if (bytes > (1ULL << 30)) {
    throw std::invalid_argument(
        "DramDevice: geometry exceeds 1 GiB; use a sim_* preset for simulation "
        "and paper_32gb() only for analytic overhead computation");
  }
  cells_.assign(static_cast<usize>(bytes), 0);
  open_row_.assign(cfg_.geo.banks, -1);
}

usize DramDevice::row_offset(const RowAddr& row) const {
  return static_cast<usize>(flat_row_id(cfg_.geo, row)) * cfg_.geo.row_bytes;
}

namespace {

[[noreturn]] void throw_outside_geometry(const Geometry& geo, const RowAddr& row) {
  throw std::out_of_range("DramDevice::activate: row {bank " + std::to_string(row.bank) +
                          ", subarray " + std::to_string(row.subarray) + ", row " +
                          std::to_string(row.row) + "} is outside the " +
                          std::to_string(geo.banks) + "x" +
                          std::to_string(geo.subarrays_per_bank) + "x" +
                          std::to_string(geo.rows_per_subarray) + " geometry");
}

}  // namespace

void DramDevice::notify_activate(const RowAddr& row) {
  for (auto* l : listeners_) l->on_activate(row, now_);
}

void DramDevice::notify_restore(const RowAddr& row, RestoreKind kind) {
  for (auto* l : listeners_) l->on_restore(row, now_, kind);
}

void DramDevice::activate(const RowAddr& row) {
  if (row.bank >= cfg_.geo.banks || row.subarray >= cfg_.geo.subarrays_per_bank ||
      row.row >= cfg_.geo.rows_per_subarray) {
    throw_outside_geometry(cfg_.geo, row);
  }
  const i64 in_bank =
      static_cast<i64>(row.subarray) * cfg_.geo.rows_per_subarray + row.row;
  if (open_row_[row.bank] == in_bank) return;  // already open: no command issued
  if (open_row_[row.bank] >= 0) precharge(row.bank);
  open_row_[row.bank] = in_bank;
  now_ += cfg_.timing.t_act;
  stats_.n_act += 1;
  stats_.busy_time += cfg_.timing.t_act;
  stats_.energy += cfg_.energy.act;
  notify_activate(row);
  notify_restore(row, RestoreKind::kRefresh);  // sensing re-amplifies the row's own cells
}

void DramDevice::precharge(u32 bank) {
  assert(bank < cfg_.geo.banks);
  if (open_row_[bank] < 0) return;
  open_row_[bank] = -1;
  now_ += cfg_.timing.t_rp;
  stats_.n_pre += 1;
  stats_.busy_time += cfg_.timing.t_rp;
  stats_.energy += cfg_.energy.pre;
}

void DramDevice::ensure_open(const RowAddr& row) {
  const i64 in_bank =
      static_cast<i64>(row.subarray) * cfg_.geo.rows_per_subarray + row.row;
  if (open_row_[row.bank] != in_bank) activate(row);
}

void DramDevice::read_burst(const RowAddr& row, usize burst_index, std::span<u8> out) {
  ensure_open(row);
  const usize off = row_offset(row) + burst_index * 64;
  assert(burst_index * 64 < cfg_.geo.row_bytes);
  const usize n = std::min<usize>(out.size(), 64);
  std::copy_n(cells_.begin() + static_cast<isize>(off), n, out.begin());
  now_ += cfg_.timing.t_cl + cfg_.timing.t_bl;
  stats_.n_rd_burst += 1;
  stats_.busy_time += cfg_.timing.t_cl + cfg_.timing.t_bl;
  stats_.energy += cfg_.energy.rd_burst;
}

void DramDevice::write_burst(const RowAddr& row, usize burst_index, std::span<const u8> data) {
  ensure_open(row);
  const usize off = row_offset(row) + burst_index * 64;
  assert(burst_index * 64 < cfg_.geo.row_bytes);
  const usize n = std::min<usize>(data.size(), 64);
  std::copy_n(data.begin(), n, cells_.begin() + static_cast<isize>(off));
  now_ += cfg_.timing.t_bl;
  stats_.n_wr_burst += 1;
  stats_.busy_time += cfg_.timing.t_bl;
  stats_.energy += cfg_.energy.wr_burst;
  notify_restore(row, RestoreKind::kRewrite);
}

std::vector<u8> DramDevice::read_row(const RowAddr& row) {
  std::vector<u8> out(cfg_.geo.row_bytes);
  for (usize b = 0; b * 64 < cfg_.geo.row_bytes; ++b) {
    read_burst(row, b, std::span<u8>(out).subspan(b * 64, 64));
  }
  return out;
}

void DramDevice::write_row(const RowAddr& row, std::span<const u8> data) {
  assert(data.size() == cfg_.geo.row_bytes);
  for (usize b = 0; b * 64 < cfg_.geo.row_bytes; ++b) {
    write_burst(row, b, data.subspan(b * 64, 64));
  }
}

void DramDevice::rowclone_fpm(u32 bank, u32 subarray, u32 src_row, u32 dst_row) {
  assert(bank < cfg_.geo.banks);
  assert(subarray < cfg_.geo.subarrays_per_bank);
  assert(src_row < cfg_.geo.rows_per_subarray);
  assert(dst_row < cfg_.geo.rows_per_subarray);
  if (src_row == dst_row) return;
  const RowAddr src{bank, subarray, src_row};
  const RowAddr dst{bank, subarray, dst_row};
  // Back-to-back ACTs without an intervening PRE: the row buffer holds the
  // source data and drives it into the destination row.
  std::copy_n(cells_.begin() + static_cast<isize>(row_offset(src)), cfg_.geo.row_bytes,
              cells_.begin() + static_cast<isize>(row_offset(dst)));
  open_row_[bank] = -1;  // AAP sequence ends precharged
  now_ += cfg_.timing.t_aap;
  stats_.n_aap += 1;
  stats_.busy_time += cfg_.timing.t_aap;
  stats_.energy += cfg_.energy.aap;
  notify_activate(src);
  notify_restore(src, RestoreKind::kRefresh);
  notify_activate(dst);
  notify_restore(dst, RestoreKind::kRewrite);
}

void DramDevice::rowclone_psm(const RowAddr& src, const RowAddr& dst) {
  // Pipelined serial mode: row travels over the internal bus burst by burst.
  // Roughly 2x the FPM latency per RowClone (MICRO'13); still no off-chip I/O.
  std::copy_n(cells_.begin() + static_cast<isize>(row_offset(src)), cfg_.geo.row_bytes,
              cells_.begin() + static_cast<isize>(row_offset(dst)));
  const Picoseconds t = 2 * cfg_.timing.t_aap +
                        static_cast<Picoseconds>(cfg_.geo.row_bytes / 64) * cfg_.timing.t_bl;
  now_ += t;
  stats_.n_psm_copy += 1;
  stats_.busy_time += t;
  stats_.energy += 2 * cfg_.energy.act +
                   static_cast<Femtojoules>(cfg_.geo.row_bytes / 64) *
                       (cfg_.energy.rd_burst + cfg_.energy.wr_burst);
  notify_activate(src);
  notify_restore(src, RestoreKind::kRefresh);
  notify_activate(dst);
  notify_restore(dst, RestoreKind::kRewrite);
}

void DramDevice::refresh_step() {
  const u64 total = cfg_.geo.total_rows();
  const u64 per_step = (total + cfg_.refresh_steps - 1) / cfg_.refresh_steps;
  for (u64 i = 0; i < per_step && total > 0; ++i) {
    const RowAddr row = unflatten_row_id(cfg_.geo, refresh_cursor_);
    notify_restore(row, RestoreKind::kRefresh);
    refresh_cursor_ = (refresh_cursor_ + 1) % total;
  }
  now_ += cfg_.timing.t_rfc;
  stats_.n_ref += 1;
  stats_.busy_time += cfg_.timing.t_rfc;
  stats_.energy += cfg_.energy.ref;
}

void DramDevice::refresh_all() {
  for (u32 s = 0; s < cfg_.refresh_steps; ++s) refresh_step();
}

u8 DramDevice::peek(const RowAddr& row, usize col) const {
  assert(col < cfg_.geo.row_bytes);
  return cells_[row_offset(row) + col];
}

void DramDevice::poke(const RowAddr& row, usize col, u8 value) {
  assert(col < cfg_.geo.row_bytes);
  cells_[row_offset(row) + col] = value;
}

std::span<const u8> DramDevice::peek_row(const RowAddr& row) const {
  return {cells_.data() + row_offset(row), cfg_.geo.row_bytes};
}

void DramDevice::poke_row(const RowAddr& row, std::span<const u8> data) {
  assert(data.size() == cfg_.geo.row_bytes);
  std::copy(data.begin(), data.end(), cells_.begin() + static_cast<isize>(row_offset(row)));
}

void DramDevice::force_flip_bit(const RowAddr& row, usize col, u32 bit) {
  assert(col < cfg_.geo.row_bytes);
  assert(bit < 8);
  cells_[row_offset(row) + col] ^= static_cast<u8>(1u << bit);
  stats_.n_bitflips += 1;
}

void DramDevice::advance(Picoseconds dt) {
  assert(dt >= 0);
  now_ += dt;
}

void DramDevice::add_listener(RowEventListener* l) { listeners_.push_back(l); }

void DramDevice::remove_listener(RowEventListener* l) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), l), listeners_.end());
}

i64 DramDevice::open_row(u32 bank) const {
  assert(bank < cfg_.geo.banks);
  return open_row_[bank];
}

}  // namespace dnnd::dram
