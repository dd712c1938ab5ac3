// Full protection workflow on a ResNet stand-in: train -> quantize -> map to
// DRAM -> multi-round priority profiling -> install DNN-Defender -> adaptive
// white-box attack -> report. Mirrors the deployment flow of paper Sec. 4.
#include <cstdio>

#include "models/model_zoo.hpp"
#include "nn/trainer.hpp"
#include "system/protected_system.hpp"

using namespace dnnd;

int main() {
  // Train the victim model.
  auto data = nn::make_synthetic(nn::SynthSpec::cifar10_like());
  auto model = models::make_resnet20_sub(data.spec.num_classes, /*seed=*/3);
  nn::TrainConfig tcfg;
  tcfg.epochs = 6;
  const auto report = nn::train(*model, data, tcfg);
  std::printf("victim: %s, %zu weights, clean accuracy %.2f%%\n", model->name().c_str(),
              model->weight_count(), 100.0 * report.test_accuracy);

  quant::QuantizedModel qm(*model);
  auto [attack_x, attack_y] = data.test.head(32);
  auto [eval_x, eval_y] = data.test.head(240);

  // Deploy into DRAM.
  system::ProtectedSystemConfig scfg;
  scfg.dram = dram::DramConfig::nn_scaled();
  system::ProtectedSystem sys(qm, scfg);
  std::printf("deployed across %zu DRAM rows (%u banks)\n",
              sys.mapping().weight_rows().size(), scfg.dram.geo.banks);

  // Multi-round priority profiling (the defender runs the attacker's own
  // search; each round excludes the previous rounds' bits).
  core::ProfilerConfig pcfg;
  pcfg.rounds = 4;
  core::PriorityProfiler profiler(qm, attack_x, attack_y, pcfg);
  const auto profile = profiler.profile();
  std::printf("profiled %zu vulnerable bits over %zu rounds:", profile.total_bits(),
              profile.round_sizes.size());
  for (usize r = 0; r < profile.round_sizes.size(); ++r) {
    std::printf(" R%zu=%zu", r + 1, profile.round_sizes[r]);
  }
  std::printf("\n");

  // Install the defense.
  auto& dd = sys.install_dnn_defender(profile);
  std::printf("DNN-Defender: %zu target rows, %zu non-target rows, swap interval %.1f us "
              "(schedule %s)\n",
              dd.targets().size(), dd.non_targets().size(), ps_to_us(dd.swap_interval()),
              dd.schedule_feasible() ? "feasible" : "best-effort");

  // Full-stack white-box attack: the attacker knows the defense, the mapping,
  // and the remap state, and drives real hammer campaigns in the simulator.
  const auto res = sys.run_white_box_attack(attack_x, attack_y, eval_x, eval_y,
                                            /*max_attempts=*/20, /*stop_accuracy=*/0.0);
  std::printf("\nwhite-box attack: %zu attempts -> %zu blocked, %zu landed\n", res.attempts,
              res.blocked, res.landed);
  std::printf("accuracy: %.2f%% -> %.2f%%\n", 100.0 * res.initial_accuracy,
              100.0 * res.final_accuracy);

  // Defense cost accounting.
  const auto& stats = dd.swap_stats();
  std::printf("\ndefense cost: %llu swaps (%llu AAPs, %.1f%% staged), "
              "%.2f ms bus time, %.2f uJ\n",
              static_cast<unsigned long long>(stats.swaps),
              static_cast<unsigned long long>(stats.aaps),
              100.0 * static_cast<double>(stats.staged_swaps) /
                  static_cast<double>(stats.swaps == 0 ? 1 : stats.swaps),
              ps_to_ms(dd.stats().time_spent), fj_to_uj(dd.stats().energy_spent));
  std::printf("device: %s\n", sys.device().stats().summary().c_str());
  return 0;
}
