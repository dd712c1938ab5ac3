// Analytic security & performance model of paper Sec. 5.1 (Figs. 8a/8b and
// the power comparison).
//
// Formulas from the paper:
//   T_swap            = 3 x T_AAP                     (T_AAP = 90 ns)
//   hammer window W   = T_ACT x T_RH                  (time to reach T_RH)
//   max swaps / W     = W / T_swap                    (per-bank swap budget)
//   Tn                = W + T_swap x Ns
//   swaps per Tref N  = (Tref / Tn) x Ns
//
// Two quantities are anchored to the paper's reported operating points and
// scaled from first principles (see the README's scale notes):
//   * max BFAs defended: the attacker can launch at most
//     banks x parallel_factor x Tref / (T_ACT x T_RH) hammer campaigns per
//     refresh window (bank-parallel double-sided attack); the paper's
//     7K/14K/28K/55K points at T_RH = 8k/4k/2k/1k fix parallel_factor.
//   * time-to-break: each white-box attempt costs T_ACT x T_RH; the expected
//     number of failed attempts before a scheduling escape is a
//     framework constant K (DNN-Defender's randomized swap chain gives a
//     larger K than SHADOW's deterministic shuffle pool). K is anchored at
//     the paper's T_RH = 4k values (1180 / 894 days); TTB then scales
//     linearly with T_RH, reproducing the figure's 71/142/286/572-day gaps.
#pragma once

#include <string>
#include <vector>

#include "sys/energy_model.hpp"

namespace dnnd::core {

struct SecurityParams {
  sys::LatencyParams timing{};
  sys::EnergyParams energy = sys::EnergyParams::ddr4();
  u32 banks = 16;
  /// Effective attack parallelism beyond bank count (double-sided pairs +
  /// command interleaving); anchored to the paper's max-BFA points.
  double parallel_factor = 2.42;
  /// Expected failed attempts before an escape (anchored at T_RH=4k).
  double k_dd = 0.0;      ///< 0 = derive from the 1180-day anchor
  double k_shadow = 0.0;  ///< 0 = derive from the 894-day anchor
  /// Normal (non-defense) DRAM activity power of the loaded 32GB DIMM; the
  /// defense delta rides on top of this. Calibrated so the DD-vs-SHADOW
  /// total-power gap at T_RH=1k matches the paper's ~1.6%.
  double baseline_traffic_mw = 900.0;
  /// SRS performs controller-level swaps lazily (its design goal is a low
  /// swap rate); swaps per defended campaign, calibrated to the paper's
  /// "3.4x improvement over SRS" power claim. DD/SHADOW act once per
  /// campaign by construction.
  double srs_swaps_per_campaign = 0.128;
};

/// One Fig.-8(a) operating point.
struct SecurityPoint {
  u32 t_rh = 0;
  Picoseconds window = 0;          ///< W = T_ACT x T_RH
  u64 max_swaps_per_window = 0;    ///< W / T_swap
  u64 max_bfa_defended = 0;        ///< attack campaigns defendable per Tref
  double ttb_days_dd = 0.0;        ///< time-to-break, DNN-Defender
  double ttb_days_shadow = 0.0;    ///< time-to-break, SHADOW
};

class SecurityModel {
 public:
  explicit SecurityModel(SecurityParams params = {});

  [[nodiscard]] SecurityPoint analyze(u32 t_rh) const;

  /// Fig. 8(b): defense latency consumed within one Tref when defending
  /// `n_bfas` attack campaigns at threshold `t_rh`. Latency saturates once
  /// n_bfas exceeds the per-window capacity. framework: "dd" or "shadow".
  [[nodiscard]] double latency_per_tref_ms(const std::string& framework, u32 t_rh,
                                           u64 n_bfas) const;

  /// Defense energy spent in one Tref at full defended load (power analysis).
  [[nodiscard]] Femtojoules energy_per_tref(const std::string& framework, u32 t_rh) const;

  /// Average defense power (mW) over a Tref at full load.
  [[nodiscard]] double defense_power_mw(const std::string& framework, u32 t_rh) const;

  /// Total system power (background + defense) in mW -- basis of the paper's
  /// "1.6% power saving vs SHADOW-1k" claim.
  [[nodiscard]] double total_power_mw(const std::string& framework, u32 t_rh) const;

  [[nodiscard]] const SecurityParams& params() const { return params_; }

  /// Per-defended-campaign cost: DD = 3 AAPs; SHADOW = shuffle of both
  /// victims through the reserved row (6 AAPs) + in-DRAM metadata (2 AAPs).
  [[nodiscard]] Picoseconds cost_per_bfa(const std::string& framework) const;

 private:
  SecurityParams params_;
  double k_dd_;
  double k_shadow_;
};

}  // namespace dnnd::core
