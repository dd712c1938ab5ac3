// Quickstart: the full DNN-Defender story in ~60 lines of API use.
//   1. Train a small quantized CNN (CIFAR-10-like stand-in).
//   2. Crush it with the targeted Bit-Flip Attack.
//   3. Profile its vulnerable bits, install DNN-Defender, attack again:
//      every flip attempt is swapped away and accuracy does not move.
#include <cstdio>

#include "attack/bfa.hpp"
#include "models/model_zoo.hpp"
#include "nn/trainer.hpp"
#include "system/protected_system.hpp"

using namespace dnnd;

int main() {
  // 1. Data + model + training. Everything is seeded and deterministic.
  auto data = nn::make_synthetic(nn::SynthSpec::cifar10_like());
  auto model = models::make_vgg11_sub(data.spec.num_classes, /*seed=*/1);
  nn::TrainConfig train_cfg;
  train_cfg.epochs = 6;
  const auto report = nn::train(*model, data, train_cfg);
  std::printf("trained %s: test accuracy %.2f%%\n", model->name().c_str(),
              100.0 * report.test_accuracy);

  // 8-bit weight quantization (the representation RowHammer attacks).
  quant::QuantizedModel qm(*model);
  const auto clean = qm.snapshot();
  auto [attack_x, attack_y] = data.test.head(32);  // attacker's sample batch
  auto [eval_x, eval_y] = data.test.head(200);

  // 2. Software BFA (no defense): progressive bit search to random guess.
  attack::BfaConfig bfa_cfg;
  bfa_cfg.max_flips = 40;
  attack::ProgressiveBitSearch bfa(qm, attack_x, attack_y, bfa_cfg);
  const auto attack_result = bfa.run();
  std::printf("BFA without defense: %zu flips -> %.2f%% accuracy\n",
              attack_result.steps.size(),
              100.0 * qm.model().accuracy(eval_x, eval_y));
  qm.restore(clean);

  // 3. Put the weights in simulated DRAM, profile, protect, attack again.
  system::ProtectedSystemConfig sys_cfg;
  sys_cfg.dram = dram::DramConfig::nn_scaled();
  system::ProtectedSystem protected_sys(qm, sys_cfg);

  core::PriorityProfiler profiler(qm, attack_x, attack_y);
  // Anticipate the blocked attacker's exact search trajectory (48 bits is
  // ample cover for the attempt budget below).
  auto& defender = protected_sys.install_dnn_defender(profiler.profile_blocked_attacker(48));
  std::printf("DNN-Defender armed: %zu target rows, swap every %.1f us\n",
              defender.targets().size(), ps_to_us(defender.swap_interval()));

  const auto defended = protected_sys.run_white_box_attack(
      attack_x, attack_y, eval_x, eval_y, /*max_attempts=*/15, /*stop_accuracy=*/0.0);
  std::printf(
      "white-box attack vs DNN-Defender: %zu attempts, %zu landed, %zu blocked\n"
      "accuracy %.2f%% -> %.2f%%, %llu in-DRAM swaps performed\n",
      defended.attempts, defended.landed, defended.blocked,
      100.0 * defended.initial_accuracy, 100.0 * defended.final_accuracy,
      static_cast<unsigned long long>(defender.swap_stats().swaps));
  return 0;
}
