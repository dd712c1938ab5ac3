#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "attack/bfa.hpp"
#include "attack/deephammer.hpp"
#include "attack/random_attack.hpp"
#include "attack/tbfa.hpp"
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
  EXPECT_GT(res.initial.accuracy, 0.8);
  EXPECT_TRUE(res.reached_stop()) << "accuracy only reached " << testutil::last(res).accuracy;
  EXPECT_LE(testutil::last(res).accuracy, 0.55);
  EXPECT_GE(res.steps.size(), 1u);
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
  EXPECT_TRUE(res.reached_stop()) << "only reached " << testutil::last(res).accuracy;
  EXPECT_LE(testutil::last(res).accuracy, bfa.stop_threshold());
}

TEST_F(BfaFixture, EachFlipIncreasesLoss) {
  BfaConfig cfg;
  cfg.max_flips = 10;
  ProgressiveBitSearch bfa(qm_, ax_, ay_, cfg);
  const auto res = bfa.run();
  usize validated = 0;
  for (const auto& rec : res.steps) {
    if (rec.fallback) continue;  // greedy escape: loss may dip
    EXPECT_GT(rec.objective_after, rec.objective_before);
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
  for (const auto& rec : res.steps) {
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
  for (const auto& rec : res.steps) high += (rec.loc.bit >= 6);
  // MSB/bit-6 flips cause the large weight shifts; they must dominate.
  EXPECT_GE(high * 2, res.steps.size());
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
  ASSERT_GE(targeted.steps.size(), 1u);

  RandomBitAttack rnd(qm_, sys::Rng(11));
  const auto random_res = trace_accuracy(qm_.model(), ax_, ay_, targeted.steps.size(),
                                         targeted.steps.size(), /*stop=*/-1.0, [&] {
                                           rnd.flip_one();
                                           return true;
                                         });
  const double random_acc = random_res.accuracy.back();
  EXPECT_GT(random_acc, testutil::last(targeted).accuracy + 0.3)
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

TEST_F(BfaFixture, TraceAccuracyMeasuresOnItsCadence) {
  // Budget 7, every 3: measurements at steps 0, 3, 6 and 7 (the last step).
  // The oracle replays the same BFA on a second copy of the model and
  // measures after every step.
  auto [ex, ey] = easy_data().test.head(60);
  ProgressiveBitSearch bfa(qm_, ax_, ay_);
  usize calls = 0;
  const auto trace = trace_accuracy(qm_.model(), ex, ey, 7, 3, /*stop=*/-1.0, [&] {
    ++calls;
    return bfa.step({}).has_value();
  });
  EXPECT_EQ(calls, 7u);
  EXPECT_EQ(trace.steps, 7u);
  EXPECT_FALSE(trace.reached_stop);

  auto model2 = trained_mlp();
  quant::QuantizedModel qm2(*model2);
  ProgressiveBitSearch replay(qm2, ax_, ay_);
  std::vector<double> every_step{model2->evaluate_batch(ex, ey).accuracy};
  for (int k = 1; k <= 7; ++k) {
    ASSERT_TRUE(replay.step({}).has_value());
    every_step.push_back(model2->evaluate_batch(ex, ey).accuracy);
  }
  EXPECT_EQ(trace.accuracy,
            (std::vector<double>{every_step[0], every_step[3], every_step[6], every_step[7]}));
}

TEST_F(BfaFixture, TraceAccuracyTakesNoExtraMeasurementWhenStepStops) {
  // The fifth step fails: four steps taken, measured only at 0 and 3.
  usize calls = 0;
  const auto trace = trace_accuracy(qm_.model(), ax_, ay_, 10, 3, /*stop=*/-1.0,
                                    [&] { return ++calls < 5; });
  EXPECT_EQ(calls, 5u);
  EXPECT_EQ(trace.steps, 4u);
  EXPECT_EQ(trace.accuracy.size(), 2u);
  EXPECT_FALSE(trace.reached_stop);
}

TEST_F(BfaFixture, TraceAccuracyStopOnInitialMeasurementTakesNoStep) {
  usize calls = 0;
  const auto trace = trace_accuracy(qm_.model(), ax_, ay_, 10, 1, /*stop=*/1.0, [&] {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(trace.steps, 0u);
  EXPECT_EQ(trace.accuracy.size(), 1u);
  EXPECT_TRUE(trace.reached_stop);
}

TEST_F(BfaFixture, TraceAccuracyStopsAfterTheStepThatReachesStop) {
  ProgressiveBitSearch bfa(qm_, ax_, ay_);
  usize calls = 0;
  const auto trace = trace_accuracy(qm_.model(), ax_, ay_, 60, 1, /*stop=*/0.55, [&] {
    ++calls;
    return bfa.step({}).has_value();
  });
  EXPECT_TRUE(trace.reached_stop);
  EXPECT_GE(trace.steps, 1u);
  EXPECT_EQ(calls, trace.steps);
  ASSERT_EQ(trace.accuracy.size(), trace.steps + 1);
  EXPECT_LE(trace.accuracy.back(), 0.55);
  for (usize k = 0; k + 1 < trace.accuracy.size(); ++k) EXPECT_GT(trace.accuracy[k], 0.55);
}

TEST_F(BfaFixture, TraceAccuracyZeroPeriodThrows) {
  // A zero sampling period has no "never" meaning: it throws before any
  // step instead of reaching `steps % 0`.
  usize calls = 0;
  EXPECT_THROW(trace_accuracy(qm_.model(), ax_, ay_, 10, /*every=*/0, /*stop=*/-1.0,
                              [&] { return ++calls > 0; }),
               std::invalid_argument);
  EXPECT_EQ(calls, 0u);
}

TEST_F(BfaFixture, AdaptiveAttackTraceShape) {
  auto [ex, ey] = easy_data().test.head(60);
  quant::BitSkipSet secured;  // nothing secured
  ProgressiveBitSearch bfa(qm_, ax_, ay_);
  const auto res = trace_accuracy(qm_.model(), ex, ey, 20, 10, /*stop=*/-1.0,
                                  [&] { return bfa.step(secured).has_value(); });
  EXPECT_EQ(secured.size(), 0u);
  EXPECT_GE(res.accuracy.size(), 2u);
  EXPECT_LE(res.steps, 20u);
  // Accuracy must not increase as flips land.
  EXPECT_LE(res.accuracy.back(), res.accuracy.front() + 1e-9);
}

TEST_F(BfaFixture, AdaptiveAttackWithEverythingSecuredLandsNothing) {
  auto [ex, ey] = easy_data().test.head(60);
  quant::BitSkipSet secured;
  for (usize l = 0; l < qm_.num_layers(); ++l) {
    for (usize i = 0; i < qm_.layer(l).size(); ++i) {
      for (u32 b = 0; b < 8; ++b) secured.insert({l, i, b});
    }
  }
  ProgressiveBitSearch bfa(qm_, ax_, ay_);
  const auto res = trace_accuracy(qm_.model(), ex, ey, 10, 10, /*stop=*/-1.0,
                                  [&] { return bfa.step(secured).has_value(); });
  EXPECT_EQ(res.steps, 0u);
  // Trace stays at clean accuracy.
  for (double a : res.accuracy) EXPECT_DOUBLE_EQ(a, res.accuracy.front());
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
  EXPECT_LT(res.initial.asr, 0.2) << "a trained model should rarely hit the target";
  EXPECT_GT(testutil::last(res).asr, res.initial.asr + 0.3) << "redirect must make real progress";
  // A targeted attacker is a minimiser: every committed flip lowers the
  // objective (no fallback path exists by design).
  for (const auto& rec : res.steps) EXPECT_LT(rec.objective_after, rec.objective_before);
  // Hamming distance stays minimal, same contract as untargeted BFA.
  std::set<u64> seen;
  for (const auto& rec : res.steps) EXPECT_TRUE(seen.insert(rec.loc.key()).second);
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
  EXPECT_GT(testutil::last(res).asr, res.initial.asr)
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
  for (const auto& rec : res.steps) {
    EXPECT_GE(rec.best.other_accuracy, atk.clean_other_accuracy() - cfg.stealth_tolerance);
  }
  EXPECT_GE(testutil::last(res).other_accuracy, atk.clean_other_accuracy() - cfg.stealth_tolerance);
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
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (usize i = 0; i < a.steps.size(); ++i) {
    EXPECT_TRUE(a.steps[i].loc == b.steps[i].loc) << "flip " << i;
    EXPECT_EQ(a.steps[i].objective_after, b.steps[i].objective_after) << "flip " << i;
    EXPECT_EQ(a.steps[i].best.asr, b.steps[i].best.asr) << "flip " << i;
    EXPECT_EQ(a.steps[i].best.other_accuracy, b.steps[i].best.other_accuracy) << "flip " << i;
  }
  EXPECT_EQ(testutil::last(a).asr, testutil::last(b).asr);
  EXPECT_EQ(testutil::last(a).other_accuracy, testutil::last(b).other_accuracy);
}

TEST_F(BfaFixture, TbfaAlreadyMetStopCommitsNothing) {
  // Every ASR is >= 0, so the clean model already complies: the driver's
  // precheck must end the run before the engine commits anything.
  const auto snap = qm_.snapshot();
  TbfaConfig cfg;
  cfg.variant = TbfaVariant::kNTo1;
  cfg.target = 1;
  cfg.stop_asr = 0.0;
  TbfaAttack atk(qm_, ax_, ay_, cfg);
  const auto res = atk.run();
  EXPECT_TRUE(res.steps.empty());
  EXPECT_EQ(res.outcome, SearchOutcome::kReachedStop);
  EXPECT_EQ(qm_.hamming_distance(snap), 0u);
}

// ------------------------------------------------------------ VWA-limited --

/// The campaign's vwa-limited attack: the untargeted objective without its
/// fallback, on the engine's loop under a hard flip budget.
SearchResult run_vwa(quant::QuantizedModel& qm, const nn::Tensor& x, const std::vector<u32>& y,
                     usize budget, double stop_accuracy, const quant::BitSkipSet& skip = {}) {
  UntargetedCeObjective objective(/*allow_fallback=*/false);
  ProbeEngine engine(qm, x, y, objective);
  return engine.run(
      budget, [=](const ProbeMeasurement& m) { return m.accuracy <= stop_accuracy; }, skip);
}

/// Random-guess stop accuracy of the 4-class fixture model.
constexpr double kGuessStop = 1.05 / 4.0;

TEST_F(BfaFixture, VwaNeverExceedsHardFlipBudget) {
  const auto snap = qm_.snapshot();
  const auto res = run_vwa(qm_, ax_, ay_, /*budget=*/5, kGuessStop);
  EXPECT_LE(res.steps.size(), 5u);
  EXPECT_LE(qm_.hamming_distance(snap), 5u);
  if (res.outcome == SearchOutcome::kBudgetExhausted) {
    EXPECT_EQ(res.steps.size(), 5u);
  }
}

TEST_F(BfaFixture, VwaBudgetExhaustionIsDistinctFromReachingStop) {
  // Tight budget, unreachable stop: the nominal limited-bit outcome.
  const auto spent = run_vwa(qm_, ax_, ay_, /*budget=*/3, kGuessStop);
  EXPECT_EQ(spent.outcome, SearchOutcome::kBudgetExhausted);
  EXPECT_FALSE(spent.reached_stop());
  EXPECT_GT(testutil::last(spent).accuracy, kGuessStop);

  // Generous budget, reachable stop: must be reported as kReachedStop, with
  // the budget left partly unspent.
  auto model2 = trained_mlp();
  quant::QuantizedModel qm2(*model2);
  const auto stopped = run_vwa(qm2, ax_, ay_, /*budget=*/60, /*stop_accuracy=*/0.55);
  EXPECT_EQ(stopped.outcome, SearchOutcome::kReachedStop);
  EXPECT_LE(testutil::last(stopped).accuracy, 0.55);
  EXPECT_LT(stopped.steps.size(), 60u);
}

TEST_F(BfaFixture, VwaMatchesBfaFlipSequenceUntilFirstFallback) {
  // Seam-equivalence: both sit on the same ProbeEngine with the same
  // untargeted objective, so their committed flips must be bit-identical
  // until BFA's first fallback step (which vwa-limited disables by design).
  BfaConfig bcfg;
  bcfg.max_flips = 8;
  bcfg.stop_accuracy = 0.01;  // unreachable: neither run stops early
  ProgressiveBitSearch bfa(qm_, ax_, ay_, bcfg);
  const auto bfa_res = bfa.run();

  auto model2 = trained_mlp();
  quant::QuantizedModel qm2(*model2);
  const auto vwa_res = run_vwa(qm2, ax_, ay_, /*budget=*/8, /*stop_accuracy=*/0.01);

  usize compared = 0;
  for (usize i = 0; i < bfa_res.steps.size(); ++i) {
    if (bfa_res.steps[i].fallback) break;  // vwa ends where BFA falls back
    ASSERT_LT(i, vwa_res.steps.size());
    EXPECT_TRUE(vwa_res.steps[i].loc == bfa_res.steps[i].loc) << "flip " << i;
    EXPECT_EQ(vwa_res.steps[i].objective_after, bfa_res.steps[i].objective_after)
        << "flip " << i;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

TEST_F(BfaFixture, VwaRespectsSkipSet) {
  const auto first = run_vwa(qm_, ax_, ay_, /*budget=*/1, kGuessStop);
  ASSERT_EQ(first.steps.size(), 1u);
  const quant::BitLocation first_loc = first.steps[0].loc;
  qm_.flip(first_loc);  // undo
  quant::BitSkipSet skip;
  skip.insert(first_loc);
  const auto second = run_vwa(qm_, ax_, ay_, /*budget=*/1, kGuessStop, skip);
  ASSERT_EQ(second.steps.size(), 1u);
  EXPECT_FALSE(second.steps[0].loc == first_loc);
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

  /// Moves a weight row onto physical row `edge` of its subarray (the data
  /// and the remapping, as a defense's relocation would) such that the
  /// returned bit of one of its weights sits on a cell that flips in the
  /// needed direction. nullopt when no weight row offers such a cell.
  std::optional<quant::BitLocation> victim_on_edge_row(u32 edge) {
    for (const dram::RowAddr& logical : mapping_.weight_rows()) {
      const dram::RowAddr frame{logical.bank, logical.subarray, edge};
      if (!(remap_.to_logical(frame) == frame)) continue;  // already used
      const dram::RowAddr phys = remap_.to_physical(logical);
      for (usize col = 0; col < mapping_.weights_in_row(logical); ++col) {
        for (u32 bit = 0; bit < 8; ++bit) {
          const auto cell = hammer_.cell_info(frame, col, bit);
          const bool is_set = (device_.peek(phys, col) >> bit) & 1;
          if (!cell.has_value() || cell->one_to_zero != is_set) continue;
          const std::vector<u8> victim(device_.peek_row(phys).begin(),
                                       device_.peek_row(phys).end());
          const std::vector<u8> spare(device_.peek_row(frame).begin(),
                                      device_.peek_row(frame).end());
          device_.poke_row(frame, victim);
          device_.poke_row(phys, spare);
          remap_.swap_logical(logical, frame);
          const auto w = mapping_.weight_at(logical, col);
          return quant::BitLocation{w->layer, w->index, bit};
        }
      }
    }
    return std::nullopt;
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

/// Records every activated row that lies outside the device geometry.
class OutsideGeometryRecorder final : public dram::RowEventListener {
 public:
  explicit OutsideGeometryRecorder(const dram::Geometry& geo) : geo_(geo) {}
  void on_activate(const dram::RowAddr& row, Picoseconds /*now*/) override {
    if (row.bank >= geo_.banks || row.subarray >= geo_.subarrays_per_bank ||
        row.row >= geo_.rows_per_subarray) {
      outside.push_back(row);
    }
  }
  void on_restore(const dram::RowAddr&, Picoseconds, dram::RestoreKind) override {}

  std::vector<dram::RowAddr> outside;

 private:
  dram::Geometry geo_;
};

TEST_F(DeepHammerFixture, EdgeRowVictimIsNeverHammeredOutsideTheGeometry) {
  // A victim on a subarray's first or last row has only one neighbour, so a
  // flippable cell there must not be hammered in place (its aggressors would
  // be rows -1 or rows_per_subarray): the attacker massages the victim onto
  // an interior frame first.
  const dram::Geometry& geo = cfg_.geo;
  OutsideGeometryRecorder recorder(geo);
  device_.add_listener(&recorder);
  for (const u32 edge : {0u, geo.rows_per_subarray - 1}) {
    const auto target = victim_on_edge_row(edge);
    ASSERT_TRUE(target.has_value()) << "no flippable victim cell on edge row " << edge;
    const auto attempt = attack_.attempt_flip(*target);
    EXPECT_TRUE(attempt.massaged) << "edge row " << edge;
  }
  device_.remove_listener(&recorder);
  for (const auto& row : recorder.outside) {
    ADD_FAILURE() << "activated row {" << row.bank << ", " << row.subarray << ", " << row.row
                  << "} outside the geometry";
  }
}

}  // namespace
}  // namespace dnnd::attack
