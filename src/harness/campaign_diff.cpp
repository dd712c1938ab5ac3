#include "harness/campaign_diff.hpp"

#include <cctype>
#include <cmath>
#include <limits>
#include <map>

#include "sys/table.hpp"

namespace dnnd::harness {

namespace {

std::string fmt_acc(double v) { return sys::fmt(100.0 * v, 4) + "%"; }

}  // namespace

i64 leading_flip_count(const std::string& flips) {
  // Hand-rolled digit walk instead of strtoll: the library call reports
  // neither overflow nor where it stopped, so a malformed flips string could
  // parse as a small plausible count and sail through the regression gate.
  usize i = 0;
  while (i < flips.size() && (flips[i] == '>' || flips[i] == '<' || flips[i] == ' ')) ++i;
  if (i >= flips.size() || !std::isdigit(static_cast<unsigned char>(flips[i]))) return -1;
  constexpr i64 kMax = std::numeric_limits<i64>::max();
  i64 value = 0;
  for (; i < flips.size() && std::isdigit(static_cast<unsigned char>(flips[i])); ++i) {
    const i64 digit = flips[i] - '0';
    if (value > (kMax - digit) / 10) return -1;  // overflow is malformed, not wrapped
    value = value * 10 + digit;
  }
  // The count may only be followed by a paper-style annotation (" (3
  // landed)"); any other suffix means the field was corrupted or renamed.
  if (i < flips.size() && flips[i] != ' ') return -1;
  return value;
}

DiffReport diff_campaigns(const CampaignResult& baseline, const CampaignResult& current,
                          const DiffConfig& cfg) {
  DiffReport report;

  std::map<std::string, const ScenarioResult*> current_by_id;
  for (const auto& r : current.results) current_by_id[r.id] = &r;
  std::map<std::string, const ScenarioResult*> baseline_by_id;
  for (const auto& r : baseline.results) baseline_by_id[r.id] = &r;

  // Baseline order first, then current-only scenarios in their run order.
  for (const auto& b : baseline.results) {
    ScenarioDelta d;
    d.id = b.id;
    const auto it = current_by_id.find(b.id);
    if (it == current_by_id.end()) {
      d.missing_in_current = true;
      d.regression = !cfg.ignore_missing;
      d.notes.push_back("scenario missing from current run");
      report.deltas.push_back(std::move(d));
      continue;
    }
    const ScenarioResult& c = *it->second;
    ++report.compared;

    auto note = [&](std::string text, bool beyond_tol) {
      d.notes.push_back(std::move(text));
      d.regression = d.regression || beyond_tol;
    };
    auto check_acc = [&](const char* field, double bv, double cv) {
      if (bv == cv) return;
      note(std::string(field) + " " + fmt_acc(bv) + " -> " + fmt_acc(cv),
           std::abs(cv - bv) > cfg.acc_tol);
    };
    auto check_count = [&](const char* field, i64 bv, i64 cv) {
      if (bv == cv) return;
      note(std::string(field) + " " + std::to_string(bv) + " -> " + std::to_string(cv),
           std::llabs(cv - bv) > cfg.flip_tol);
    };

    if (b.ok != c.ok) {
      note(std::string("ok ") + (b.ok ? "true" : "false") + " -> " + (c.ok ? "true" : "false"),
           true);
    }
    d.clean_delta = c.clean_accuracy - b.clean_accuracy;
    d.post_delta = c.post_accuracy - b.post_accuracy;
    check_acc("clean_accuracy", b.clean_accuracy, c.clean_accuracy);
    check_acc("post_accuracy", b.post_accuracy, c.post_accuracy);
    // The targeted-attack metrics gate like accuracies: both are fractions of
    // an eval-batch row subset, so acc_tol is the right yardstick.
    check_acc("attack_success_rate", b.attack_success_rate, c.attack_success_rate);
    check_acc("post_attack_other_acc", b.post_attack_other_acc, c.post_attack_other_acc);

    // A successful scenario must carry a parseable flip count on BOTH sides:
    // a malformed/hand-edited baseline field is itself a loud failure, even
    // when the two strings happen to match byte-for-byte.
    const i64 bf = leading_flip_count(b.flips);
    const i64 cf = leading_flip_count(c.flips);
    if (b.ok && bf < 0) note("baseline flips unparseable: \"" + b.flips + "\"", true);
    if (c.ok && cf < 0) note("current flips unparseable: \"" + c.flips + "\"", true);
    if (b.flips != c.flips) {
      const bool numeric = bf >= 0 && cf >= 0;
      d.flip_delta = numeric ? cf - bf : 0;
      // At zero flip tolerance the spelling itself is gated: ">8" (budget
      // exhausted before stop accuracy) and "8" (stop reached) are different
      // outcomes even though their leading counts match. A nonzero tolerance
      // compares counts only, so marker transitions can ride along with the
      // count drift they imply.
      note("flips \"" + b.flips + "\" -> \"" + c.flips + "\"",
           !numeric || cfg.flip_tol == 0 || std::llabs(cf - bf) > cfg.flip_tol);
    }
    check_count("attempts", static_cast<i64>(b.attempts), static_cast<i64>(c.attempts));
    check_count("landed", static_cast<i64>(b.landed), static_cast<i64>(c.landed));
    check_count("blocked", static_cast<i64>(b.blocked), static_cast<i64>(c.blocked));
    check_count("secured_bits", static_cast<i64>(b.secured_bits),
                static_cast<i64>(c.secured_bits));
    check_count("secured_rows", static_cast<i64>(b.secured_rows),
                static_cast<i64>(c.secured_rows));
    check_count("total_bits", static_cast<i64>(b.total_bits), static_cast<i64>(c.total_bits));

    if (b.trace.size() != c.trace.size()) {
      note("trace length " + std::to_string(b.trace.size()) + " -> " +
               std::to_string(c.trace.size()),
           true);
    } else {
      double worst = 0.0;
      usize worst_i = 0;
      for (usize i = 0; i < b.trace.size(); ++i) {
        const double delta = std::abs(c.trace[i] - b.trace[i]);
        if (delta > worst) {
          worst = delta;
          worst_i = i;
        }
      }
      if (worst > 0.0) {
        note("trace[" + std::to_string(worst_i) + "] " + fmt_acc(b.trace[worst_i]) + " -> " +
                 fmt_acc(c.trace[worst_i]),
             worst > cfg.acc_tol);
      }
    }

    if (!d.notes.empty()) report.deltas.push_back(std::move(d));
  }

  for (const auto& c : current.results) {
    if (baseline_by_id.find(c.id) != baseline_by_id.end()) continue;
    ScenarioDelta d;
    d.id = c.id;
    d.missing_in_baseline = true;
    d.regression = !cfg.ignore_missing;
    d.notes.push_back("scenario missing from baseline");
    report.deltas.push_back(std::move(d));
  }

  for (const auto& d : report.deltas) {
    if (d.regression) ++report.regressions;
  }
  return report;
}

std::string DiffReport::to_string() const {
  std::string out;
  if (deltas.empty()) {
    return "identical: " + std::to_string(compared) + " scenarios match exactly\n";
  }
  for (const auto& d : deltas) {
    out += (d.regression ? "REGRESSION " : "within-tol ") + d.id + "\n";
    for (const auto& n : d.notes) out += "    " + n + "\n";
  }
  out += std::to_string(compared) + " compared, " + std::to_string(deltas.size()) +
         " with differences, " + std::to_string(regressions) + " regression(s)\n";
  return out;
}

}  // namespace dnnd::harness
