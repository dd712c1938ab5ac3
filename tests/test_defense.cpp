#include <gtest/gtest.h>

#include <cmath>

#include "attack/bfa.hpp"
#include "defense/counter_based.hpp"
#include "defense/overhead_model.hpp"
#include "defense/para.hpp"
#include "defense/rrs.hpp"
#include "defense/shadow.hpp"
#include "defense/software_defenses.hpp"
#include "defense/srs.hpp"
#include "rowhammer/attacker.hpp"
#include "test_util.hpp"

namespace dnnd::defense {
namespace {

using dram::DramConfig;
using dram::DramDevice;
using dram::RowAddr;
using dram::RowRemapper;

DramConfig fast_config() {
  DramConfig cfg = DramConfig::sim_small();
  cfg.t_rh = 600;  // keep hammering loops quick
  return cfg;
}

rowhammer::HammerModelConfig dense_cells() {
  rowhammer::HammerModelConfig h;
  h.p_vulnerable = 0.2;
  h.seed = 77;
  return h;
}

/// Hammers the physical neighbourhood of logical row `victim` double-sided
/// while `mitigation` (if any) runs via the post-act hook. The white-box
/// attacker re-resolves the victim's physical location between bursts (it
/// tracks remapping); the verdict is whether the victim's *data* -- wherever
/// it now lives -- lost any bit. A defense that merely relocates intact data
/// does not count as broken.
bool hammer_breaks_row(DramDevice& dev, RowRemapper& remap, defense::Mitigation* mitigation,
                       const RowAddr& victim, u64 acts) {
  rowhammer::HammerAttacker attacker(dev, sys::Rng(5));
  if (mitigation != nullptr) {
    attacker.set_post_act_hook([mitigation] { mitigation->tick(); });
  }
  std::vector<u8> ones(dev.config().geo.row_bytes, 0xFF);
  dev.write_row(remap.to_physical(victim), ones);
  const u64 burst = std::max<u64>(64, dev.config().t_rh / 8);
  for (u64 done = 0; done < acts; done += burst) {
    const RowAddr phys = remap.to_physical(victim);
    if (phys.row == 0 || phys.row + 1 >= dev.config().geo.rows_per_subarray) continue;
    attacker.double_sided(phys, burst);
  }
  const auto data = dev.peek_row(remap.to_physical(victim));
  for (u8 b : data) {
    if (b != 0xFF) return true;
  }
  return false;
}

TEST(Baseline, HammerBreaksUndefendedRow) {
  DramDevice dev(fast_config());
  rowhammer::HammerModel model(dev, dense_cells());
  RowRemapper remap(dev.config().geo);
  EXPECT_TRUE(hammer_breaks_row(dev, remap, nullptr, {0, 1, 20}, 3 * dev.config().t_rh));
}

// ---------------------------------------------------------------- RRS/SRS --

TEST(Rrs, SwapsHotAggressorAndUpdatesRemap) {
  DramDevice dev(fast_config());
  RowRemapper remap(dev.config().geo);
  Rrs rrs(dev, remap);
  // Directly activate one row past the swap threshold.
  rowhammer::HammerAttacker attacker(dev, sys::Rng(1));
  const RowAddr hot{0, 0, 10};
  const RowAddr other{0, 0, 40};
  const RowAddr aggs[2] = {hot, other};
  attacker.hammer(aggs, 2 * dev.config().t_rh);
  EXPECT_GT(rrs.swaps_performed(), 0u);
  EXPECT_GT(rrs.stats().tracker_accesses, 0u);
}

TEST(Rrs, SwapPreservesData) {
  DramDevice dev(fast_config());
  RowRemapper remap(dev.config().geo);
  Rrs rrs(dev, remap);
  const RowAddr hot{0, 0, 10};
  std::vector<u8> payload(dev.config().geo.row_bytes, 0xCD);
  dev.write_row(hot, payload);
  rowhammer::HammerAttacker attacker(dev, sys::Rng(1));
  const RowAddr aggs[2] = {hot, {0, 0, 40}};
  attacker.hammer(aggs, 2 * dev.config().t_rh);
  ASSERT_GT(rrs.swaps_performed(), 0u);
  // The logical row content is intact wherever it physically lives now.
  const RowAddr phys = remap.to_physical(hot);
  for (u8 b : dev.peek_row(phys)) EXPECT_EQ(b, 0xCD);
}

TEST(Rrs, WhiteBoxVictimFocusedAttackDefeatsIt) {
  // The paper's core argument: RRS swaps aggressors, so an attacker who
  // tracks the victim keeps accumulating disturbance and eventually flips.
  DramDevice dev(fast_config());
  rowhammer::HammerModel model(dev, dense_cells());
  RowRemapper remap(dev.config().geo);
  Rrs rrs(dev, remap);
  EXPECT_TRUE(hammer_breaks_row(dev, remap, &rrs, {0, 1, 20}, 4 * dev.config().t_rh))
      << "RRS unexpectedly stopped a physical-adjacency attack";
}

TEST(Srs, IsAnRrsWithSmallerTracker) {
  DramDevice dev(fast_config());
  RowRemapper remap(dev.config().geo);
  Srs srs(dev, remap);
  EXPECT_EQ(srs.name(), "SRS");
  DramDevice dev2(fast_config());
  rowhammer::HammerModel model(dev2, dense_cells());
  RowRemapper remap2(dev2.config().geo);
  Srs srs2(dev2, remap2);
  EXPECT_TRUE(hammer_breaks_row(dev2, remap2, &srs2, {0, 1, 20}, 4 * dev2.config().t_rh));
}

// ----------------------------------------------------------------- SHADOW --

TEST(ShadowDefense, BlocksDoubleSidedHammer) {
  DramDevice dev(fast_config());
  rowhammer::HammerModel model(dev, dense_cells());
  RowRemapper remap(dev.config().geo);
  Shadow shadow(dev, remap);
  EXPECT_FALSE(hammer_breaks_row(dev, remap, &shadow, {0, 1, 20}, 4 * dev.config().t_rh))
      << "SHADOW failed to shuffle the victim before threshold";
  EXPECT_GT(shadow.shuffles_performed(), 0u);
}

TEST(ShadowDefense, ShufflePreservesVictimData) {
  DramDevice dev(fast_config());
  rowhammer::HammerModel model(dev, dense_cells());
  RowRemapper remap(dev.config().geo);
  Shadow shadow(dev, remap);
  const RowAddr victim{0, 1, 20};
  std::vector<u8> payload(dev.config().geo.row_bytes, 0xEE);
  dev.write_row(victim, payload);
  rowhammer::HammerAttacker attacker(dev, sys::Rng(3));
  const RowAddr aggs[2] = {{0, 1, 19}, {0, 1, 21}};
  attacker.hammer(aggs, 2 * dev.config().t_rh);
  ASSERT_GT(shadow.shuffles_performed(), 0u);
  const RowAddr phys = remap.to_physical(victim);
  EXPECT_FALSE(phys == victim) << "victim should have moved";
  for (u8 b : dev.peek_row(phys)) EXPECT_EQ(b, 0xEE);
}

TEST(ShadowDefense, UsesOnlyInDramOps) {
  DramDevice dev(fast_config());
  RowRemapper remap(dev.config().geo);
  Shadow shadow(dev, remap);
  rowhammer::HammerAttacker attacker(dev, sys::Rng(3));
  const RowAddr aggs[2] = {{0, 1, 19}, {0, 1, 21}};
  attacker.hammer(aggs, 2 * dev.config().t_rh);
  EXPECT_EQ(shadow.stats().tracker_accesses, 0u);  // no SRAM
  EXPECT_GT(dev.stats().n_aap, 0u);                // RowClone-based
}

// ---------------------------------------------------------- counter-based --

class CounterPresets : public ::testing::TestWithParam<CounterBasedConfig> {};

TEST_P(CounterPresets, BlocksHammerByNeighborRefresh) {
  DramDevice dev(fast_config());
  rowhammer::HammerModel model(dev, dense_cells());
  RowRemapper remap(dev.config().geo);
  CounterBased defense(dev, remap, GetParam());
  EXPECT_FALSE(hammer_breaks_row(dev, remap, &defense, {0, 1, 20}, 4 * dev.config().t_rh))
      << GetParam().name << " failed";
  EXPECT_GT(defense.refreshes_issued(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, CounterPresets,
                         ::testing::Values(CounterBased::graphene(), CounterBased::twice(),
                                           CounterBased::hydra(),
                                           CounterBased::counter_per_row(),
                                           CounterBased::counter_tree()),
                         [](const auto& info) { return info.param.name; });

TEST(CounterBasedCosts, SramVsDramTrackers) {
  DramDevice dev1(fast_config());
  RowRemapper r1(dev1.config().geo);
  CounterBased graphene(dev1, r1, CounterBased::graphene());
  DramDevice dev2(fast_config());
  RowRemapper r2(dev2.config().geo);
  CounterBased cpr(dev2, r2, CounterBased::counter_per_row());
  rowhammer::HammerAttacker a1(dev1, sys::Rng(1)), a2(dev2, sys::Rng(1));
  const RowAddr aggs[2] = {{0, 0, 10}, {0, 0, 40}};
  a1.hammer(aggs, 500);
  a2.hammer(aggs, 500);
  EXPECT_GT(graphene.stats().tracker_accesses, 0u);
  EXPECT_EQ(cpr.stats().tracker_accesses, 0u);  // counters in DRAM instead
  EXPECT_GT(cpr.stats().energy_spent, graphene.stats().energy_spent);
}

// -------------------------------------------------------------------- PARA --

TEST(ParaDefense, ProbabilityOneBlocksEverything) {
  DramDevice dev(fast_config());
  rowhammer::HammerModel model(dev, dense_cells());
  RowRemapper remap(dev.config().geo);
  ParaConfig cfg;
  cfg.refresh_probability = 1.0;
  Para para(dev, remap, cfg);
  EXPECT_FALSE(hammer_breaks_row(dev, remap, &para, {0, 1, 20}, 3 * dev.config().t_rh));
}

TEST(ParaDefense, ProbabilityZeroBlocksNothing) {
  DramDevice dev(fast_config());
  rowhammer::HammerModel model(dev, dense_cells());
  RowRemapper remap(dev.config().geo);
  ParaConfig cfg;
  cfg.refresh_probability = 0.0;
  Para para(dev, remap, cfg);
  EXPECT_TRUE(hammer_breaks_row(dev, remap, &para, {0, 1, 20}, 3 * dev.config().t_rh));
}

// ---------------------------------------------------------- overhead model --

TEST(Overhead, TableCoversAllFrameworks) {
  const auto table = overhead_table(dram::DramConfig::paper_32gb());
  ASSERT_EQ(table.size(), 10u);
  EXPECT_EQ(table.back().framework, "DNN-Defender");
}

TEST(Overhead, OnlyDnnDefenderHasZeroCapacity) {
  for (const auto& e : overhead_table(dram::DramConfig::paper_32gb())) {
    if (e.framework == "DNN-Defender") {
      EXPECT_EQ(e.total_bytes(), 0u);
    } else {
      EXPECT_GT(e.total_bytes(), 0u) << e.framework;
    }
  }
}

TEST(Overhead, CounterPerRowMatchesPaperDerivation) {
  // 32GB / 8KB rows * 8B counters = 32MB (paper Table 2).
  for (const auto& e : overhead_table(dram::DramConfig::paper_32gb())) {
    if (e.framework == "CounterPerRow") {
      EXPECT_EQ(e.dram_bytes, 32ull * 1024 * 1024);
    }
    if (e.framework == "SHADOW") {
      EXPECT_EQ(e.dram_bytes, 20ull * 8192);  // 0.16 MB
    }
  }
}

TEST(Overhead, FastMemoryFlagsMatchPaper) {
  for (const auto& e : overhead_table(dram::DramConfig::paper_32gb())) {
    const bool fast = e.needs_fast_memory();
    if (e.framework == "Graphene" || e.framework == "Hydra" || e.framework == "TWiCE") {
      EXPECT_TRUE(fast) << e.framework;
    }
    if (e.framework == "SHADOW" || e.framework == "P-PIM" ||
        e.framework == "DNN-Defender" || e.framework == "CounterPerRow" ||
        e.framework == "CounterTree") {
      EXPECT_FALSE(fast) << e.framework;
    }
  }
}

// ------------------------------------------------------- software defenses --

TEST(BinaryWeight, FlipNegatesSign) {
  auto model = testutil::trained_mlp();
  software::BinaryWeightModel bm(*model);
  const i8 before = bm.get_q(0, 5);
  bm.flip({0, 5, 7});
  EXPECT_EQ(bm.get_q(0, 5), -before);
  EXPECT_EQ(bm.total_bits(), model->weight_count());
}

TEST(BinaryWeight, MaterializedWeightsAreBinary) {
  auto model = testutil::trained_mlp();
  software::BinaryWeightModel bm(*model);
  for (auto& p : model->quantizable_params()) {
    for (usize i = 0; i < p.value->size(); i += 5) {
      const float v = std::fabs((*p.value)[i]);
      bool matches = false;
      for (usize l = 0; l < bm.num_layers(); ++l) {
        if (std::fabs(v - bm.alpha(l)) < 1e-6) matches = true;
      }
      EXPECT_TRUE(matches);
    }
  }
}

TEST(BinaryWeight, PerFlipDamageIsBounded) {
  // The binary-weight defense argument (Table 3): a sign flip moves a weight
  // by exactly 2*alpha (alpha = mean|w|), while an 8-bit MSB flip moves it by
  // 128 quantization steps ~ max|w| -- several times larger. Bounded per-flip
  // damage is what forces the attacker to spend more flips.
  auto m8 = testutil::trained_mlp();
  quant::QuantizedModel qm(*m8);
  auto mb = testutil::trained_mlp();
  software::BinaryWeightModel bm(*mb);
  for (usize l = 0; l < bm.num_layers(); ++l) {
    const double binary_step = 2.0 * bm.alpha(l);
    const double msb_step = 128.0 * qm.layer(l).scale;
    EXPECT_LT(binary_step, msb_step * 0.75)
        << "layer " << l << ": binary flips must be gentler than MSB flips";
  }
  // And the flip really moves the weight by exactly 2*alpha.
  const float before = (*bm.model().quantizable_params()[0].value)[3];
  bm.flip({0, 3, 7});
  const float after = (*bm.model().quantizable_params()[0].value)[3];
  EXPECT_NEAR(std::fabs(after - before), 2.0 * bm.alpha(0), 1e-6);
}

/// Every code of `bm` is +-64 and every float weight is exactly +-alpha.
void expect_binary(software::BinaryWeightModel& bm) {
  for (usize l = 0; l < bm.num_layers(); ++l) {
    const quant::QuantizedLayer& layer = bm.layer(l);
    EXPECT_EQ(layer.lowest_bit, 7u);
    for (usize i = 0; i < layer.size(); ++i) {
      ASSERT_TRUE(layer.q[i] == 64 || layer.q[i] == -64) << l << ":" << i;
      ASSERT_EQ((*layer.value)[i], layer.q[i] > 0 ? bm.alpha(l) : -bm.alpha(l))
          << l << ":" << i;
    }
  }
}

TEST(BinaryBfa, EveryCommittedFlipIsTheSignBitOfADistinctWeight) {
  auto model = testutil::trained_mlp();
  software::BinaryWeightModel bm(*model);
  expect_binary(bm);
  const auto snap = bm.snapshot();
  auto [ax, ay] = testutil::easy_data().test.head(64);
  const auto res = software::attack_binary(bm, ax, ay, /*max_flips=*/8,
                                           /*stop_accuracy=*/-1.0);
  ASSERT_GT(res.steps.size(), 0u);
  EXPECT_FALSE(res.reached_stop());
  // With every code still +-64, each changed weight differs from its snapshot
  // in the sign bit alone, so the distance counts changed weights: one per
  // flip, and a weight flipped twice would be back at its snapshot code.
  expect_binary(bm);
  EXPECT_EQ(bm.hamming_distance(snap), res.steps.size());
  EXPECT_EQ(testutil::last(res).accuracy, model->evaluate_batch(ax, ay).accuracy);
}

TEST(BinaryBfa, SignBitGainIsTheBinaryFirstOrderGain) {
  // top_k_flips on a binary layer offers bit 7 only, and prices it as
  // g * (-2 * alpha * sign) exactly.
  auto model = testutil::trained_mlp();
  software::BinaryWeightModel bm(*model);
  auto [ax, ay] = testutil::easy_data().test.head(64);
  model->zero_grad();
  model->loss_and_grad(ax, ay);
  for (usize l = 0; l < bm.num_layers(); ++l) {
    const quant::QuantizedLayer& layer = bm.layer(l);
    const auto cands = quant::top_k_flips(layer, l, 16, {});
    ASSERT_FALSE(cands.empty());
    for (const auto& c : cands) {
      EXPECT_EQ(c.loc.bit, 7u);
      const double sign = layer.q[c.loc.index] > 0 ? 1.0 : -1.0;
      EXPECT_EQ(c.estimated_gain,
                (*layer.grad)[c.loc.index] * (-2.0 * bm.alpha(l) * sign));
    }
  }
}

TEST(BinaryBfa, StopsAtTheBudgetOrTheStopAccuracy) {
  auto [ax, ay] = testutil::easy_data().test.head(64);
  {
    auto model = testutil::trained_mlp();
    software::BinaryWeightModel bm(*model);
    const double clean = model->evaluate_batch(ax, ay).accuracy;
    const auto res = software::attack_binary(bm, ax, ay, /*max_flips=*/0, -1.0);
    EXPECT_EQ(res.steps.size(), 0u);
    EXPECT_EQ(testutil::last(res).accuracy, clean);
    EXPECT_FALSE(res.reached_stop());
  }
  {
    // Any accuracy is <= 1, so the first committed flip stops the search.
    auto model = testutil::trained_mlp();
    software::BinaryWeightModel bm(*model);
    const auto res = software::attack_binary(bm, ax, ay, /*max_flips=*/8, 1.0);
    EXPECT_EQ(res.steps.size(), 1u);
    EXPECT_TRUE(res.reached_stop());
  }
}

TEST(BinaryWeight, SteFinetuneRecoversAccuracy) {
  // Naive post-hoc binarization of a conv/dense net collapses it; the STE
  // fine-tune must bring it back to a useful level.
  auto model = testutil::trained_mlp();
  const double acc = software::binary_finetune(*model, testutil::easy_data(),
                                               /*epochs=*/3, /*lr=*/0.02, 5);
  EXPECT_GT(acc, 0.6);
  // Deployed weights are exactly binary per layer.
  for (auto& p : model->quantizable_params()) {
    const float mag = std::fabs((*p.value)[0]);
    for (usize i = 0; i < p.value->size(); i += 7) {
      EXPECT_NEAR(std::fabs((*p.value)[i]), mag, 1e-6);
    }
  }
}

TEST(PiecewiseClustering, KeepsAccuracyReasonable) {
  auto model = testutil::trained_mlp();
  const double before = nn::evaluate(*model, testutil::easy_data().test);
  const double after = software::piecewise_clustering_finetune(
      *model, testutil::easy_data(), /*lambda=*/0.01, /*epochs=*/2, /*lr=*/0.01, 3);
  EXPECT_GT(after, before - 0.1);
}

TEST(PiecewiseClustering, PullsWeightsTowardTwoClusters) {
  auto model = testutil::trained_mlp();
  software::piecewise_clustering_finetune(*model, testutil::easy_data(), /*lambda=*/0.3,
                                          /*epochs=*/4, /*lr=*/0.01, 3);
  // Weight magnitudes should concentrate: the ratio max|w| / mean|w| shrinks
  // toward 1 as weights move to +-mu.
  for (auto& p : model->quantizable_params()) {
    double mean = 0.0;
    for (usize i = 0; i < p.value->size(); ++i) mean += std::fabs((*p.value)[i]);
    mean /= static_cast<double>(p.value->size());
    EXPECT_LT(p.value->abs_max() / mean, 4.0);
  }
}

TEST(Reconstruction, ClampsMsbFlippedWeight) {
  auto model = testutil::trained_mlp();
  quant::QuantizedModel qm(*model);
  software::ReconstructionGuard guard(qm, 0.999);
  // Flip the sign bit of a small positive code: it becomes very negative.
  usize idx = 0;
  for (usize i = 0; i < qm.layer(0).size(); ++i) {
    if (qm.get_q(0, i) >= 0 && qm.get_q(0, i) < 32) {
      idx = i;
      break;
    }
  }
  qm.flip({0, idx, 7});
  ASSERT_LT(qm.get_q(0, idx), -64);
  const usize corrected = guard.apply(qm);
  EXPECT_GE(corrected, 1u);
  EXPECT_GE(qm.get_q(0, idx), -static_cast<i32>(guard.bound(0)));
}

TEST(Reconstruction, RepairsAttackDamage) {
  auto model = testutil::trained_mlp();
  quant::QuantizedModel qm(*model);
  software::ReconstructionGuard guard(qm);
  auto [ax, ay] = testutil::easy_data().test.head(32);
  attack::BfaConfig cfg;
  cfg.max_flips = 10;
  attack::ProgressiveBitSearch bfa(qm, ax, ay, cfg);
  bfa.run();
  const double attacked_acc = qm.model().accuracy(ax, ay);
  const double attacked_loss = qm.model().loss(ax, ay);
  const usize corrected = guard.apply(qm);
  // The attack's damage comes from out-of-distribution weight magnitudes;
  // the guard must find and shrink some of them, and the (sensitive) loss
  // must improve. Accuracy is quantised over 32 samples, so it may tie.
  EXPECT_GT(corrected, 0u);
  EXPECT_LT(qm.model().loss(ax, ay), attacked_loss);
  EXPECT_GE(qm.model().accuracy(ax, ay), attacked_acc);
}

}  // namespace
}  // namespace dnnd::defense
