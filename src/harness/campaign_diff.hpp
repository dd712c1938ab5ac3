// Campaign regression diff: field-by-field comparison of two CampaignResults
// (typically a committed baseline JSON vs a fresh run) with configurable
// tolerances. This is the library core of the `dnnd_diff` CLI; tests drive
// it directly.
#pragma once

#include <string>
#include <vector>

#include "harness/campaign.hpp"

namespace dnnd::harness {

struct DiffConfig {
  /// Absolute tolerance on clean/post accuracy and trace points
  /// (fractional, i.e. 0.01 == one accuracy percentage point).
  double acc_tol = 0.0;
  /// Tolerance on integer counters: parsed flip counts, attempts, landed,
  /// blocked, secured_bits/rows. At 0 the flips *string* must match exactly
  /// (">8" vs "8" is a different outcome -- stop accuracy never reached vs
  /// reached -- even though the counts agree); a nonzero tolerance compares
  /// leading counts only.
  i64 flip_tol = 0;
  /// When true, scenarios present on only one side are reported but do not
  /// count as regressions (for diffing runs of different grids).
  bool ignore_missing = false;
};

/// Comparison outcome for one scenario id.
struct ScenarioDelta {
  std::string id;
  bool missing_in_baseline = false;
  bool missing_in_current = false;
  /// At least one field moved beyond its tolerance.
  bool regression = false;

  double clean_delta = 0.0;  ///< current - baseline
  double post_delta = 0.0;
  i64 flip_delta = 0;  ///< parsed numeric flip-count delta; 0 when unparseable

  /// Human-readable field-level differences ("post_accuracy 0.52 -> 0.31").
  std::vector<std::string> notes;
};

struct DiffReport {
  std::vector<ScenarioDelta> deltas;  ///< one entry per scenario with any difference
  usize compared = 0;                 ///< ids present on both sides
  usize regressions = 0;              ///< deltas flagged as regression

  [[nodiscard]] bool ok() const { return regressions == 0; }

  /// Multi-line report; "identical"/"within tolerance" summary when clean.
  [[nodiscard]] std::string to_string() const;
};

/// Leading integer of a paper-style flips string (">80" -> 80,
/// "30 (0 landed)" -> 30). Returns -1 when no leading count is present, the
/// count overflows i64, or the count is followed by anything other than a
/// space-separated annotation -- malformed fields must never parse as a
/// plausible number. diff_campaigns flags an unparseable flips field of a
/// successful scenario as a regression on either side, even when baseline
/// and current match byte-for-byte.
i64 leading_flip_count(const std::string& flips);

/// Compares scenario results by id (order-insensitive). Every field beyond
/// its DiffConfig tolerance flags the scenario as a regression.
DiffReport diff_campaigns(const CampaignResult& baseline, const CampaignResult& current,
                          const DiffConfig& cfg = {});

}  // namespace dnnd::harness
