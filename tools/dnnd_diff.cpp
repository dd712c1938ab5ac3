// dnnd_diff: compares two persisted campaign JSON files (CampaignResult
// documents written by a CampaignSink) and reports per-scenario accuracy and
// flip-count deltas.
//
// Exit codes: 0 = no regression (identical or within tolerance),
//             1 = at least one scenario regressed beyond tolerance,
//             2 = usage / I/O / parse error.
//
// Usage:
//   dnnd_diff [--acc-tol FRAC] [--flip-tol N] [--ignore-missing] [--quiet]
//             <baseline.json> <current.json>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "harness/campaign_diff.hpp"
#include "sys/env.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--acc-tol FRAC] [--flip-tol N] [--ignore-missing]\n"
               "          [--quiet] <baseline.json> <current.json>\n"
               "\n"
               "Compares two campaign JSON files (CampaignSink output) scenario by\n"
               "scenario. --acc-tol is an absolute accuracy tolerance as a fraction\n"
               "(0.01 = one percentage point); --flip-tol bounds integer counter\n"
               "drift (flips, attempts, landed, ...). Exits 1 on regression.\n",
               argv0);
  return 2;
}

/// Tolerance parsing on the strict sys::parse_* contract (the same grammar
/// every DNND_* env knob obeys): a garbage tolerance must be a usage error,
/// not a silent 0 that turns the gate maximally strict (or, with a partial
/// parse like "1e", arbitrarily loose). The shared parsers also reject what
/// bare strtod/strtoll quietly accepted here before -- hex floats ("0x8"
/// parsed as 8.0), "inf"/"nan" (isfinite caught those), and '+' prefixes.
bool parse_double_arg(const char* text, double* out) {
  if (text == nullptr) return false;
  const auto v = dnnd::sys::parse_finite_double(text);
  if (!v.has_value() || *v < 0.0) return false;
  *out = *v;
  return true;
}

bool parse_i64_arg(const char* text, long long* out) {
  if (text == nullptr) return false;
  // Non-negative by contract, so the integer grammar is parse_usize's; the
  // extra bound keeps the value representable in the i64 tolerance field.
  const auto v = dnnd::sys::parse_usize(text);
  constexpr auto kMax = static_cast<dnnd::usize>(std::numeric_limits<long long>::max());
  if (!v.has_value() || *v > kMax) return false;
  *out = static_cast<long long>(*v);
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  dnnd::harness::DiffConfig cfg;
  bool quiet = false;
  std::string paths[2];
  int n_paths = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--acc-tol") {
      const char* v = next_value();
      if (v == nullptr || !parse_double_arg(v, &cfg.acc_tol)) {
        std::fprintf(stderr, "--acc-tol: expected a non-negative number, got \"%s\"\n",
                     v == nullptr ? "" : v);
        return usage(argv[0]);
      }
    } else if (arg == "--flip-tol") {
      const char* v = next_value();
      long long tol = 0;
      if (v == nullptr || !parse_i64_arg(v, &tol)) {
        std::fprintf(stderr, "--flip-tol: expected a non-negative integer, got \"%s\"\n",
                     v == nullptr ? "" : v);
        return usage(argv[0]);
      }
      cfg.flip_tol = tol;
    } else if (arg == "--ignore-missing") {
      cfg.ignore_missing = true;
    } else if (arg == "--quiet" || arg == "-q") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      if (n_paths >= 2) return usage(argv[0]);
      paths[n_paths++] = arg;
    }
  }
  if (n_paths != 2) return usage(argv[0]);

  try {
    const auto baseline = dnnd::harness::campaign_from_json(read_file(paths[0]));
    const auto current = dnnd::harness::campaign_from_json(read_file(paths[1]));
    const auto report = dnnd::harness::diff_campaigns(baseline, current, cfg);
    if (!quiet) {
      std::printf("baseline: %s (%zu scenarios)\n", paths[0].c_str(), baseline.results.size());
      std::printf("current:  %s (%zu scenarios)\n", paths[1].c_str(), current.results.size());
      std::printf("%s", report.to_string().c_str());
    }
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dnnd_diff: %s\n", e.what());
    return 2;
  }
}
