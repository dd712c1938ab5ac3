// Transaction-level DRAM device: banks -> subarrays -> rows of bytes, with a
// per-bank row buffer, command-accurate timing/energy accounting, RowClone
// FPM/PSM in-DRAM copy, distributed refresh, and activation/restore hooks
// that the RowHammer fault model and the mitigations subscribe to.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "dram/dram_config.hpp"
#include "dram/stats.hpp"

namespace dnnd::dram {

/// How a row's charge was restored.
enum class RestoreKind {
  kRefresh,  ///< cells re-amplified to their *current* value (ACT restore, REF)
  kRewrite,  ///< new data driven into the cells (write, RowClone destination)
};

/// Observer interface for row-level events. The RowHammer model listens to
/// build disturbance counters; counter-based mitigations listen to track
/// aggressors.
class RowEventListener {
 public:
  virtual ~RowEventListener() = default;
  /// A physical row was activated (sense + restore) at time `now`.
  virtual void on_activate(const RowAddr& row, Picoseconds now) = 0;
  /// A physical row's cells were restored at time `now`. Disturbance
  /// accumulated against this row so far can no longer flip it. kRewrite
  /// additionally recharges previously-flipped cells (fresh data).
  virtual void on_restore(const RowAddr& row, Picoseconds now, RestoreKind kind) = 0;
};

/// The simulated device. All mutating commands advance the internal clock and
/// charge energy; `peek/poke/force_flip_bit` bypass timing and model physical
/// effects (fault injection, test setup).
class DramDevice {
 public:
  explicit DramDevice(DramConfig cfg);

  DramDevice(const DramDevice&) = delete;
  DramDevice& operator=(const DramDevice&) = delete;

  // ----- command interface (advances time, charges energy) -----

  /// ACT: opens `row` in its bank (implicitly PREs a different open row).
  /// Fires on_activate and on_restore for the row. Throws std::out_of_range
  /// for an address outside the geometry.
  void activate(const RowAddr& row);

  /// PRE: closes the open row of `bank` (no-op when already closed).
  void precharge(u32 bank);

  /// Reads one 64B burst; requires/establishes the row being open.
  void read_burst(const RowAddr& row, usize burst_index, std::span<u8> out);

  /// Writes one 64B burst; requires/establishes the row being open.
  /// Fires on_restore for the row.
  void write_burst(const RowAddr& row, usize burst_index, std::span<const u8> data);

  /// Convenience: full-row read via ACT + all bursts.
  std::vector<u8> read_row(const RowAddr& row);

  /// Convenience: full-row write via ACT + all bursts. `data` must be
  /// row_bytes long.
  void write_row(const RowAddr& row, std::span<const u8> data);

  /// RowClone-FPM: in-subarray bulk copy src -> dst via back-to-back ACTs
  /// (one tAAP, no channel transfer). Rows must share bank+subarray.
  /// Fires on_activate+on_restore(src) and on_restore(dst).
  void rowclone_fpm(u32 bank, u32 subarray, u32 src_row, u32 dst_row);

  /// RowClone-PSM: inter-bank copy through the internal bus (slower than FPM
  /// but still avoids the off-chip channel).
  void rowclone_psm(const RowAddr& src, const RowAddr& dst);

  /// One distributed-refresh slice: refreshes the next 1/refresh_steps of all
  /// rows (fires on_restore for each). Call refresh_steps times per Tref.
  void refresh_step();

  /// Refreshes every row at once (end-of-window convenience).
  void refresh_all();

  // ----- physical/cell-level access (no timing; models faults & test setup) -----

  [[nodiscard]] u8 peek(const RowAddr& row, usize col) const;
  void poke(const RowAddr& row, usize col, u8 value);
  [[nodiscard]] std::span<const u8> peek_row(const RowAddr& row) const;
  void poke_row(const RowAddr& row, std::span<const u8> data);

  /// Flips one cell (RowHammer fault injection). bit in [0,8).
  void force_flip_bit(const RowAddr& row, usize col, u32 bit);

  // ----- clock / bookkeeping -----

  [[nodiscard]] Picoseconds now() const { return now_; }
  /// Advances the clock without issuing commands (e.g. attacker think time).
  void advance(Picoseconds dt);

  [[nodiscard]] const DramConfig& config() const { return cfg_; }
  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Listener registration. Listeners are not owned.
  void add_listener(RowEventListener* l);
  void remove_listener(RowEventListener* l);

  /// Open row of a bank, or -1 when precharged (exposed for tests).
  [[nodiscard]] i64 open_row(u32 bank) const;

 private:
  usize row_offset(const RowAddr& row) const;
  void ensure_open(const RowAddr& row);
  void notify_activate(const RowAddr& row);
  void notify_restore(const RowAddr& row, RestoreKind kind);

  DramConfig cfg_;
  std::vector<u8> cells_;          ///< flat physical storage
  std::vector<i64> open_row_;      ///< per-bank open flat-row-within-bank, -1 = precharged
  std::vector<RowEventListener*> listeners_;
  Stats stats_;
  Picoseconds now_ = 0;
  u64 refresh_cursor_ = 0;  ///< next flat row id for distributed refresh
};

}  // namespace dnnd::dram
