#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "attack/adaptive_attack.hpp"
#include "attack/bfa.hpp"
#include "attack/deephammer.hpp"
#include "attack/random_attack.hpp"
#include "attack/tbfa.hpp"
#include "attack/vwa.hpp"
#include "test_util.hpp"

namespace dnnd::attack {
namespace {

using testutil::easy_data;
using testutil::trained_mlp;

class BfaFixture : public ::testing::Test {
 protected:
  BfaFixture() : model_(trained_mlp()), qm_(*model_) {
    std::tie(ax_, ay_) = easy_data().test.head(32);
  }
  std::unique_ptr<nn::Model> model_;
  quant::QuantizedModel qm_;
  nn::Tensor ax_;
  std::vector<u32> ay_;
};

TEST_F(BfaFixture, HalvesAccuracyInFewFlips) {
  // On the tiny 2-layer MLP the greedy loss maximisation plateaus around
  // 50% (confidently-correct samples have vanishing gradients); the conv
  // models collapse fully -- see ConvNetCollapsesToRandomGuess below.
  BfaConfig cfg;
  cfg.max_flips = 60;
  cfg.stop_accuracy = 0.55;
  ProgressiveBitSearch bfa(qm_, ax_, ay_, cfg);
  const auto res = bfa.run();
  EXPECT_GT(res.initial_batch_accuracy, 0.8);
  EXPECT_TRUE(res.reached_stop) << "accuracy only reached " << res.final_batch_accuracy;
  EXPECT_LE(res.final_batch_accuracy, 0.55);
  EXPECT_GE(res.flips.size(), 1u);
}

TEST_F(BfaFixture, ConvNetCollapsesToRandomGuess) {
  // The paper's setting: conv nets collapse to the random-guess level in a
  // few dozen flips.
  sys::Rng rng(31);
  auto conv = std::make_unique<nn::Model>("tiny_conv");
  conv->add(std::make_unique<nn::Conv2d>(1, 4, 3, 1, 1, rng));
  conv->add(std::make_unique<nn::BatchNorm2d>(4));
  conv->add(std::make_unique<nn::ReLU>());
  conv->add(std::make_unique<nn::MaxPool2d>());
  conv->add(std::make_unique<nn::Conv2d>(4, 8, 3, 1, 1, rng));
  conv->add(std::make_unique<nn::BatchNorm2d>(8));
  conv->add(std::make_unique<nn::ReLU>());
  conv->add(std::make_unique<nn::GlobalAvgPool>());
  conv->add(std::make_unique<nn::Dense>(8, 4, rng));
  nn::TrainConfig tcfg;
  tcfg.epochs = 5;
  const auto report = nn::train(*conv, testutil::easy_data(), tcfg);
  ASSERT_GT(report.test_accuracy, 0.8);
  quant::QuantizedModel qm(*conv);
  BfaConfig cfg;
  cfg.max_flips = 50;
  ProgressiveBitSearch bfa(qm, ax_, ay_, cfg);
  const auto res = bfa.run();
  EXPECT_TRUE(res.reached_stop) << "only reached " << res.final_batch_accuracy;
  EXPECT_LE(res.final_batch_accuracy, bfa.stop_threshold());
}

TEST_F(BfaFixture, EachFlipIncreasesLoss) {
  BfaConfig cfg;
  cfg.max_flips = 10;
  ProgressiveBitSearch bfa(qm_, ax_, ay_, cfg);
  const auto res = bfa.run();
  usize validated = 0;
  for (const auto& rec : res.flips) {
    if (rec.fallback) continue;  // greedy escape: loss may dip
    EXPECT_GT(rec.loss_after, rec.loss_before);
    ++validated;
  }
  EXPECT_GT(validated, 0u);
}

TEST_F(BfaFixture, NeverReflipsABit) {
  BfaConfig cfg;
  cfg.max_flips = 40;
  ProgressiveBitSearch bfa(qm_, ax_, ay_, cfg);
  const auto res = bfa.run();
  std::set<u64> seen;
  for (const auto& rec : res.flips) {
    EXPECT_TRUE(seen.insert(rec.loc.key()).second)
        << "bit flipped twice (hamming distance must stay minimal)";
  }
}

TEST_F(BfaFixture, NeverRecommitsABitAfterARestore) {
  // Restoring the clean codes puts the search back where it started, so the
  // same bit ranks first again; only the engine's committed-bit exclusion
  // keeps it from being chosen twice.
  const auto snap = qm_.snapshot();
  ProgressiveBitSearch bfa(qm_, ax_, ay_);
  const auto first = bfa.step({});
  ASSERT_TRUE(first.has_value());
  qm_.restore(snap);
  const auto second = bfa.step({});
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->loc, first->loc);
}

TEST_F(BfaFixture, PrefersHighOrderBits) {
  BfaConfig cfg;
  cfg.max_flips = 15;
  ProgressiveBitSearch bfa(qm_, ax_, ay_, cfg);
  const auto res = bfa.run();
  usize high = 0;
  for (const auto& rec : res.flips) high += (rec.loc.bit >= 6);
  // MSB/bit-6 flips cause the large weight shifts; they must dominate.
  EXPECT_GE(high * 2, res.flips.size());
}

TEST_F(BfaFixture, SkipSetIsRespected) {
  BfaConfig cfg;
  cfg.max_flips = 5;
  ProgressiveBitSearch probe(qm_, ax_, ay_, cfg);
  const auto first = probe.step({});
  ASSERT_TRUE(first.has_value());
  qm_.flip(first->loc);  // undo
  quant::BitSkipSet skip;
  skip.insert(first->loc);
  ProgressiveBitSearch constrained(qm_, ax_, ay_, cfg);
  const auto second = constrained.step(skip);
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->loc == first->loc);
}

TEST_F(BfaFixture, StepCommitsExactlyOneBit) {
  const auto snap = qm_.snapshot();
  BfaConfig cfg;
  ProgressiveBitSearch bfa(qm_, ax_, ay_, cfg);
  const auto rec = bfa.step({});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(qm_.hamming_distance(snap), 1u);
}

TEST_F(BfaFixture, EvaluatingAllLayersMatchesOrBeatsSubset) {
  // layers_evaluated is a perf knob; evaluating all layers can only find an
  // equal-or-better flip in the first step.
  auto model2 = trained_mlp();
  quant::QuantizedModel qm2(*model2);
  BfaConfig all_cfg;
  all_cfg.layers_evaluated = 0;
  ProgressiveBitSearch all_layers(qm2, ax_, ay_, all_cfg);
  const auto rec_all = all_layers.step({});

  BfaConfig sub_cfg;
  sub_cfg.layers_evaluated = 1;
  ProgressiveBitSearch subset(qm_, ax_, ay_, sub_cfg);
  const auto rec_sub = subset.step({});
  ASSERT_TRUE(rec_all.has_value());
  ASSERT_TRUE(rec_sub.has_value());
  EXPECT_GE(rec_all->loss_after, rec_sub->loss_after - 1e-9);
}

TEST_F(BfaFixture, RandomAttackIsFarWeaker) {
  // Baseline comparison of Fig. 1(b): random flips barely move accuracy
  // at the budget where the targeted attack does real damage.
  auto model2 = trained_mlp();
  quant::QuantizedModel qm2(*model2);
  BfaConfig cfg;
  cfg.max_flips = 40;
  ProgressiveBitSearch bfa(qm2, ax_, ay_, cfg);
  const auto targeted = bfa.run();
  ASSERT_GE(targeted.flips.size(), 1u);

  RandomBitAttack rnd(qm_, sys::Rng(11));
  const auto random_res = rnd.run(targeted.flips.size(), ax_, ay_, targeted.flips.size());
  const double random_acc = random_res.accuracy_trace.back();
  EXPECT_GT(random_acc, targeted.final_batch_accuracy + 0.3)
      << "random attack should be far weaker at equal flip budget";
}

TEST_F(BfaFixture, RandomAttackRespectsSkipSet) {
  quant::BitSkipSet skip;
  // Forbid everything in layer 0.
  for (usize i = 0; i < qm_.layer(0).size(); ++i) {
    for (u32 b = 0; b < 8; ++b) skip.insert({0, i, b});
  }
  RandomBitAttack rnd(qm_, sys::Rng(13));
  for (int i = 0; i < 50; ++i) {
    const auto loc = rnd.flip_one(skip);
    EXPECT_NE(loc.layer, 0u);
  }
}

TEST_F(BfaFixture, RandomAttackZeroMeasurePeriodThrows) {
  // Regression: measure_every == 0 used to reach `flips % measure_every`
  // (division by zero) instead of failing loudly at the API boundary.
  RandomBitAttack rnd(qm_, sys::Rng(3));
  EXPECT_THROW(rnd.run(10, ax_, ay_, /*measure_every=*/0), std::invalid_argument);
}

TEST_F(BfaFixture, AdaptiveAttackZeroMeasurePeriodThrows) {
  auto [ex, ey] = easy_data().test.head(60);
  AdaptiveAttackConfig cfg;
  cfg.measure_every = 0;
  EXPECT_THROW(AdaptiveWhiteBoxAttack(qm_, ax_, ay_, ex, ey, cfg),
               std::invalid_argument);
}

TEST_F(BfaFixture, AdaptiveAttackTraceShape) {
  auto [ex, ey] = easy_data().test.head(60);
  AdaptiveAttackConfig cfg;
  cfg.max_additional_flips = 20;
  cfg.measure_every = 10;
  AdaptiveWhiteBoxAttack attack(qm_, ax_, ay_, ex, ey, cfg);
  quant::BitSkipSet secured;  // nothing secured
  const auto res = attack.run(secured);
  EXPECT_EQ(res.secured_bits, 0u);
  EXPECT_GE(res.accuracy_trace.size(), 2u);
  EXPECT_LE(res.landed_flips.size(), 20u);
  // Accuracy must not increase as flips land.
  EXPECT_LE(res.accuracy_trace.back(), res.accuracy_trace.front() + 1e-9);
}

TEST_F(BfaFixture, AdaptiveAttackWithEverythingSecuredLandsNothing) {
  auto [ex, ey] = easy_data().test.head(60);
  quant::BitSkipSet secured;
  for (usize l = 0; l < qm_.num_layers(); ++l) {
    for (usize i = 0; i < qm_.layer(l).size(); ++i) {
      for (u32 b = 0; b < 8; ++b) secured.insert({l, i, b});
    }
  }
  AdaptiveAttackConfig cfg;
  cfg.max_additional_flips = 10;
  AdaptiveWhiteBoxAttack attack(qm_, ax_, ay_, ex, ey, cfg);
  const auto res = attack.run(secured);
  EXPECT_TRUE(res.landed_flips.empty());
  // Trace stays at clean accuracy.
  for (double a : res.accuracy_trace) EXPECT_DOUBLE_EQ(a, res.accuracy_trace.front());
}

TEST_F(BfaFixture, StopThresholdUsesModelClassCountNotBatchLabels) {
  // Regression: num_classes_ used to be max(label)+1 over the attack batch,
  // so a batch omitting the top class inflated the random-guess threshold
  // (1.05/3 instead of 1.05/4 here) and cut the search short.
  std::vector<u32> clamped = ay_;
  for (u32& y : clamped) y = std::min(y, 2u);  // class 3 absent from the batch
  ProgressiveBitSearch bfa(qm_, ax_, clamped, {});
  EXPECT_DOUBLE_EQ(bfa.stop_threshold(), 1.05 / 4.0);
}

TEST(BfaNanProbe, SaturatingFlipRanksAsMostDestructive) {
  // A flip that drives a logit to +inf makes the softmax NaN (inf - inf).
  // NaN compares false under `>`, so the candidate loop used to silently
  // discard exactly the most destructive probes. probe_loss_key maps NaN to
  // +inf; the saturating flip must now win the step.
  sys::Rng rng(1);
  auto model = std::make_unique<nn::Model>("sat");
  auto dense = std::make_unique<nn::Dense>(2, 2, rng);
  // W = [[5, 0], [0, 0]], b = 0: scale 5/127, codes [127, 0, 0, 0].
  for (usize i = 0; i < dense->weight.size(); ++i) dense->weight[i] = 0.0f;
  for (usize i = 0; i < dense->bias.size(); ++i) dense->bias[i] = 0.0f;
  dense->weight[0] = 5.0f;
  model->add(std::move(dense));
  quant::QuantizedModel qm(*model);

  // x = (1, 3e38), label 0: base logits (5, 0). The two positive-gain
  // candidates are w01 bit 7 (z0 -> -inf, large FINITE loss) and w11 bit 6
  // (z1 -> +inf, NaN loss). The NaN probe is the more destructive one.
  nn::Tensor x({1, 2});
  x[0] = 1.0f;
  x[1] = 3e38f;
  ProgressiveBitSearch bfa(qm, x, {0}, {});
  const auto rec = bfa.step({});
  ASSERT_TRUE(rec.has_value());
  EXPECT_FALSE(rec->fallback) << "the NaN probe must win in-loop, not via fallback";
  EXPECT_EQ(rec->loc.index, 3u);  // w11 ({out, in} layout)
  EXPECT_EQ(rec->loc.bit, 6u);
  EXPECT_TRUE(std::isinf(rec->loss_after)) << "committed record carries the +inf key";
}

// ------------------------------------------------------------------ T-BFA --

TEST_F(BfaFixture, TbfaNTo1RedirectsEverythingToTarget) {
  TbfaConfig cfg;
  cfg.variant = TbfaVariant::kNTo1;
  cfg.target = 1;
  cfg.max_flips = 25;
  TbfaAttack atk(qm_, ax_, ay_, cfg);
  EXPECT_EQ(atk.source_class(), nn::kAllSources);
  const auto res = atk.run();
  EXPECT_LT(res.initial_asr, 0.2) << "a trained model should rarely hit the target";
  EXPECT_GT(res.final_asr, res.initial_asr + 0.3) << "redirect must make real progress";
  // A targeted attacker is a minimiser: every committed flip lowers the
  // objective (no fallback path exists by design).
  for (const auto& rec : res.flips) EXPECT_LT(rec.loss_after, rec.loss_before);
  // Hamming distance stays minimal, same contract as untargeted BFA.
  std::set<u64> seen;
  for (const auto& rec : res.flips) EXPECT_TRUE(seen.insert(rec.loc.key()).second);
}

TEST_F(BfaFixture, Tbfa1To1RaisesSourceToTargetRate) {
  TbfaConfig cfg;
  cfg.variant = TbfaVariant::k1To1;
  cfg.source = 2;
  cfg.target = 0;
  cfg.max_flips = 25;
  TbfaAttack atk(qm_, ax_, ay_, cfg);
  EXPECT_EQ(atk.source_class(), 2u);
  const auto res = atk.run();
  EXPECT_GT(res.final_asr, res.initial_asr)
      << "1-to-1 redirect must raise the source->target rate";
}

TEST_F(BfaFixture, TbfaStealthyRespectsOtherClassTolerance) {
  TbfaConfig cfg;
  cfg.variant = TbfaVariant::kStealthy;
  cfg.source = 3;
  cfg.target = 1;
  cfg.stealth_tolerance = 0.15;
  cfg.max_flips = 25;
  TbfaAttack atk(qm_, ax_, ay_, cfg);
  const auto res = atk.run();
  // The admissibility constraint holds after EVERY committed flip, not just
  // at the end -- an overall-accuracy monitor sampling mid-attack sees
  // nothing.
  for (const auto& rec : res.flips) {
    EXPECT_GE(rec.other_acc_after, atk.clean_other_accuracy() - cfg.stealth_tolerance);
  }
  EXPECT_GE(res.final_other_acc, atk.clean_other_accuracy() - cfg.stealth_tolerance);
}

TEST_F(BfaFixture, TbfaRejectsOutOfRangeOrDegenerateClassPairs) {
  TbfaConfig cfg;
  cfg.variant = TbfaVariant::k1To1;
  cfg.source = 1;
  cfg.target = 9;  // model has 4 classes
  EXPECT_THROW(TbfaAttack(qm_, ax_, ay_, cfg), std::invalid_argument);
  cfg.target = 1;  // source == target
  EXPECT_THROW(TbfaAttack(qm_, ax_, ay_, cfg), std::invalid_argument);
  cfg.source = 7;
  cfg.target = 0;
  EXPECT_THROW(TbfaAttack(qm_, ax_, ay_, cfg), std::invalid_argument);
}

TEST_F(BfaFixture, TbfaByteIdenticalAcrossGemmThreadCounts) {
  // Same determinism contract as the campaign: the GEMM team split must not
  // change a single committed bit or measured number.
  auto run_with_threads = [&](usize threads) {
    const testutil::ThreadsGuard guard;
    nn::gemm::set_threads(threads);
    auto model = trained_mlp();
    quant::QuantizedModel qm(*model);
    TbfaConfig cfg;
    cfg.variant = TbfaVariant::kNTo1;
    cfg.target = 2;
    cfg.max_flips = 12;
    TbfaAttack atk(qm, ax_, ay_, cfg);
    return atk.run();
  };
  const auto a = run_with_threads(1);
  const auto b = run_with_threads(4);
  ASSERT_EQ(a.flips.size(), b.flips.size());
  for (usize i = 0; i < a.flips.size(); ++i) {
    EXPECT_TRUE(a.flips[i].loc == b.flips[i].loc) << "flip " << i;
    EXPECT_EQ(a.flips[i].loss_after, b.flips[i].loss_after) << "flip " << i;
    EXPECT_EQ(a.flips[i].asr_after, b.flips[i].asr_after) << "flip " << i;
    EXPECT_EQ(a.flips[i].other_acc_after, b.flips[i].other_acc_after) << "flip " << i;
  }
  EXPECT_EQ(a.final_asr, b.final_asr);
  EXPECT_EQ(a.final_other_acc, b.final_other_acc);
}

// ------------------------------------------------------------ VWA-limited --

TEST_F(BfaFixture, VwaNeverExceedsHardFlipBudget) {
  const auto snap = qm_.snapshot();
  VwaLimitedConfig cfg;
  cfg.flip_budget = 5;
  VwaLimitedAttack atk(qm_, ax_, ay_, cfg);
  const auto res = atk.run();
  EXPECT_LE(res.flips.size(), 5u);
  EXPECT_LE(qm_.hamming_distance(snap), 5u);
  if (res.budget_exhausted()) {
    EXPECT_EQ(res.flips.size(), 5u);
  }
}

TEST_F(BfaFixture, VwaBudgetExhaustionIsDistinctFromReachingStop) {
  // Tight budget, unreachable stop: the nominal limited-bit outcome.
  VwaLimitedConfig tight;
  tight.flip_budget = 3;
  VwaLimitedAttack limited(qm_, ax_, ay_, tight);
  const auto spent = limited.run();
  EXPECT_EQ(spent.outcome, VwaOutcome::kBudgetExhausted);
  EXPECT_FALSE(spent.reached_stop());
  EXPECT_GT(spent.final_batch_accuracy, limited.stop_threshold());

  // Generous budget, reachable stop: must be reported as kReachedStop, with
  // the budget left partly unspent.
  auto model2 = trained_mlp();
  quant::QuantizedModel qm2(*model2);
  VwaLimitedConfig loose;
  loose.flip_budget = 60;
  loose.stop_accuracy = 0.55;
  VwaLimitedAttack stopper(qm2, ax_, ay_, loose);
  const auto stopped = stopper.run();
  EXPECT_EQ(stopped.outcome, VwaOutcome::kReachedStop);
  EXPECT_LE(stopped.final_batch_accuracy, 0.55);
  EXPECT_LT(stopped.flips.size(), 60u);
}

TEST_F(BfaFixture, VwaZeroBudgetThrows) {
  VwaLimitedConfig cfg;
  cfg.flip_budget = 0;
  EXPECT_THROW(VwaLimitedAttack(qm_, ax_, ay_, cfg), std::invalid_argument);
}

TEST_F(BfaFixture, VwaMatchesBfaFlipSequenceUntilFirstFallback) {
  // Seam-equivalence: both drivers sit on the same ProbeEngine with the same
  // untargeted objective, so their committed flips must be bit-identical
  // until BFA's first fallback step (which vwa-limited disables by design).
  BfaConfig bcfg;
  bcfg.max_flips = 8;
  bcfg.stop_accuracy = 0.01;  // unreachable: neither driver stops early
  ProgressiveBitSearch bfa(qm_, ax_, ay_, bcfg);
  const auto bfa_res = bfa.run();

  auto model2 = trained_mlp();
  quant::QuantizedModel qm2(*model2);
  VwaLimitedConfig vcfg;
  vcfg.flip_budget = 8;
  vcfg.stop_accuracy = 0.01;
  VwaLimitedAttack vwa(qm2, ax_, ay_, vcfg);
  const auto vwa_res = vwa.run();

  usize compared = 0;
  for (usize i = 0; i < bfa_res.flips.size(); ++i) {
    if (bfa_res.flips[i].fallback) break;  // vwa ends where BFA falls back
    ASSERT_LT(i, vwa_res.flips.size());
    EXPECT_TRUE(vwa_res.flips[i].loc == bfa_res.flips[i].loc) << "flip " << i;
    EXPECT_EQ(vwa_res.flips[i].loss_after, bfa_res.flips[i].loss_after) << "flip " << i;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

TEST_F(BfaFixture, VwaRespectsSkipSet) {
  VwaLimitedConfig cfg;
  cfg.flip_budget = 1;
  VwaLimitedAttack probe(qm_, ax_, ay_, cfg);
  const auto first = probe.step({});
  ASSERT_TRUE(first.has_value());
  qm_.flip(first->loc);  // undo
  quant::BitSkipSet skip;
  skip.insert(first->loc);
  VwaLimitedAttack constrained(qm_, ax_, ay_, cfg);
  const auto second = constrained.step(skip);
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->loc == first->loc);
}

// ------------------------------------------------------------- DeepHammer --

class DeepHammerFixture : public ::testing::Test {
 protected:
  DeepHammerFixture()
      : model_(trained_mlp()),
        qm_(*model_),
        cfg_(dram::DramConfig::nn_scaled()),
        device_(cfg_),
        remap_(cfg_.geo),
        hammer_(device_, rowhammer::HammerModelConfig{}),
        mapping_(qm_, cfg_),
        attack_(device_, hammer_, mapping_, remap_) {
    mapping_.upload(qm_, device_, remap_);
  }

  std::unique_ptr<nn::Model> model_;
  quant::QuantizedModel qm_;
  dram::DramConfig cfg_;
  dram::DramDevice device_;
  dram::RowRemapper remap_;
  rowhammer::HammerModel hammer_;
  mapping::WeightMapping mapping_;
  DeepHammerAttack attack_;
};

TEST_F(DeepHammerFixture, UndefendedFlipLands) {
  const quant::BitLocation target{0, 10, 7};
  const auto before = qm_.get_q(0, 10);
  const auto attempt = attack_.attempt_flip(target);
  EXPECT_TRUE(attempt.success);
  EXPECT_GT(attempt.activations, 0u);
  EXPECT_GT(attempt.elapsed, 0);
  // The flip is in DRAM (model untouched until download).
  EXPECT_EQ(qm_.get_q(0, 10), before);
  mapping_.download(qm_, device_, remap_);
  EXPECT_EQ(qm_.get_q(0, 10), quant::flip_bit_value(before, 7));
}

TEST_F(DeepHammerFixture, FlipNeedsAtLeastThresholdActivations) {
  const auto attempt = attack_.attempt_flip({1, 3, 7});
  ASSERT_TRUE(attempt.success);
  // Double-sided: the victim accumulates ~1 disturbance per aggressor ACT.
  EXPECT_GE(attempt.activations, device_.config().t_rh);
}

TEST_F(DeepHammerFixture, MassagingRelocatesVictimRow) {
  const quant::BitLocation target{0, 20, 6};
  const auto logical = mapping_.locate(0, 20).row;
  const auto attempt = attack_.attempt_flip(target);
  ASSERT_TRUE(attempt.success);
  if (attempt.massaged) {
    EXPECT_FALSE(remap_.is_identity());
    // The logical row still resolves and holds the weight data (flipped bit
    // aside) -- massaging must not corrupt other bytes.
    const auto phys = remap_.to_physical(logical);
    const auto w = mapping_.weight_at(logical, 0);
    ASSERT_TRUE(w.has_value());
    if (!(w->layer == target.layer && w->index == target.index)) {
      EXPECT_EQ(static_cast<i8>(device_.peek(phys, 0)), qm_.get_q(w->layer, w->index));
    }
  }
}

TEST_F(DeepHammerFixture, RepeatedFlipsAcrossWeights) {
  usize landed = 0;
  for (usize i = 0; i < 4; ++i) {
    const auto attempt = attack_.attempt_flip({0, i * 7, 7});
    landed += attempt.success;
  }
  EXPECT_EQ(landed, 4u);
}

}  // namespace
}  // namespace dnnd::attack
