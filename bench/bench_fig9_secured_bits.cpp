// Fig. 9: adaptive white-box BFA against DNN-Defender for increasing numbers
// of Secured Bits (SB), on (a) VGG-11 / CIFAR-10-like, (b) ResNet-18 /
// ImageNet-like, (c) ResNet-34 / ImageNet-like.
//
// Semantics follow the paper's priority-protection mechanism: the profiled
// SB bits select *target rows*, and DNN-Defender protects the whole row, so
// the attacker-visible secured set is the row expansion of the SB prefix.
// The x-axis is SB + additional landed flips, as in the paper.
//
// Scale note (also in the README's scale notes): on our ~10^4-weight
// stand-in models nearly every weight row holds catastrophic bits, so the
// intermediate-SB curves compress toward the unprotected one (small models
// lack the redundancy that flattens the paper's mid-SB curves); the
// endpoints -- unprotected collapse within a few flips, and near-clean
// accuracy at full row coverage (the paper's "~4% of bits -> random-attack
// level") -- reproduce.
#include "attack/adaptive_attack.hpp"
#include "bench_util.hpp"
#include "core/priority_profiler.hpp"
#include "mapping/weight_mapping.hpp"

using namespace dnnd;

namespace {

struct PanelSpec {
  const char* label;
  const char* arch;
  nn::SynthSpec data_spec;
  usize epochs;
};

/// Row-expanded secured set for the first `sb` profiled bits (0 = all weight
/// rows -- complete priority coverage). Returns the row count via rows_out.
quant::BitSkipSet secured_rows(const core::ProfileResult& profile, usize sb,
                               const mapping::WeightMapping& map, usize* rows_out) {
  std::vector<dram::RowAddr> rows;
  if (sb == 0) {
    rows = map.weight_rows();
  } else {
    rows = core::PriorityProfiler::target_rows(profile, map, sb);
  }
  *rows_out = rows.size();
  return map.bits_in_rows(rows);
}

void run_panel(const PanelSpec& panel) {
  const bool small = bench::small_scale();
  std::printf("\n--- Fig. 9(%s): %s ---\n", panel.label, panel.arch);
  auto data = nn::make_synthetic(panel.data_spec);
  auto model = bench::train_model(panel.arch, data, panel.epochs);
  auto [ax, ay] = data.test.head(small ? 20 : 28);
  auto [ex, ey] = data.test.head(small ? 100 : 240);
  quant::QuantizedModel qm(*model);
  const auto clean_snapshot = qm.snapshot();
  const mapping::WeightMapping map(qm, dram::DramConfig::nn_scaled());

  // SB levels: trajectory prefixes (the exact blocked-attacker search order)
  // plus the full-coverage level the defender deploys in practice.
  std::vector<usize> sb_levels = small ? std::vector<usize>{8, 32}
                                       : std::vector<usize>{8, 16, 32, 64};
  const usize max_traj = sb_levels.back();
  bench::Stopwatch prof_sw;
  core::PriorityProfiler profiler(qm, ax, ay);
  const auto profile = profiler.profile_blocked_attacker(max_traj);
  std::printf("[setup] profiled %zu trajectory bits in %.1fs; %zu weight rows total\n",
              profile.total_bits(), prof_sw.seconds(), map.weight_rows().size());

  const usize extra = small ? 20 : 40;
  const usize step = 10;

  std::vector<std::string> headers{"Secured Bits", "rows"};
  for (usize k = 0; k <= extra; k += step) headers.push_back("SB+" + std::to_string(k));
  sys::Table table(headers);
  auto run_level = [&](const std::string& label, usize sb) {
    usize n_rows = 0;
    const auto secured = secured_rows(profile, sb, map, &n_rows);
    attack::AdaptiveAttackConfig cfg;
    cfg.max_additional_flips = extra;
    cfg.measure_every = step;
    attack::AdaptiveWhiteBoxAttack attack(qm, ax, ay, ex, ey, cfg);
    const auto res = attack.run(secured);
    std::vector<std::string> row{label, std::to_string(n_rows)};
    for (usize i = 0; i + 2 < headers.size(); ++i) {
      row.push_back(i < res.accuracy_trace.size()
                        ? sys::fmt(100.0 * res.accuracy_trace[i], 1)
                        : sys::fmt(100.0 * res.accuracy_trace.back(), 1));
    }
    table.add_row(row);
    qm.restore(clean_snapshot);
  };
  run_level("none (baseline)", 1);  // 1 bit -> 1 row: effectively unprotected
  for (usize sb : sb_levels) run_level(std::to_string(sb), sb);
  run_level("full row coverage", 0);
  table.print();
}

}  // namespace

int main() {
  bench::banner("Fig. 9 -- Adaptive white-box BFA vs Secured Bits (SB)",
                "paper Fig. 9(a-c): more SB -> more attacker effort; full coverage -> flat");
  run_panel({"a", "vgg11", nn::SynthSpec::cifar10_like(), 6});
  run_panel({"b", "resnet18", nn::SynthSpec::imagenet_like(), 6});
  run_panel({"c", "resnet34", nn::SynthSpec::imagenet_like(), 6});
  std::printf(
      "\nShape check (paper): the x-axis is SB + landed flips, so higher-SB\n"
      "curves cost the attacker more total iterations for equal damage; at\n"
      "full priority coverage the white-box attack lands nothing and the\n"
      "curve stays at clean accuracy -- the paper's downgrade-to-random\n"
      "endpoint. Mid-SB gradation is compressed on this small substrate\n"
      "(see the README's scale notes).\n");
  return 0;
}
