#include <gtest/gtest.h>

#include <set>

#include "core/dnn_defender.hpp"
#include "core/priority_profiler.hpp"
#include "core/security_model.hpp"
#include "core/swap_scheduler.hpp"
#include "rowhammer/attacker.hpp"
#include "test_util.hpp"

namespace dnnd::core {
namespace {

using dram::DramConfig;
using dram::DramDevice;
using dram::RowAddr;
using dram::RowRemapper;
using namespace dnnd::time_literals;

// -------------------------------------------------------------- SwapEngine --

class SwapEngineFixture : public ::testing::Test {
 protected:
  SwapEngineFixture()
      : cfg_(DramConfig::sim_small()), dev_(cfg_), remap_(cfg_.geo), engine_(dev_, remap_),
        rng_(3) {}

  void fill_logical(const RowAddr& logical, u8 value) {
    std::vector<u8> data(cfg_.geo.row_bytes, value);
    dev_.poke_row(remap_.to_physical(logical), data);
  }

  u8 first_byte(const RowAddr& logical) { return dev_.peek(remap_.to_physical(logical), 0); }

  DramConfig cfg_;
  DramDevice dev_;
  RowRemapper remap_;
  SwapEngine engine_;
  sys::Rng rng_;
};

TEST_F(SwapEngineFixture, ColdSwapCostsFourAaps) {
  const RowAddr target{0, 0, 10};
  const RowAddr non_target{0, 0, 20};
  const u32 aaps = engine_.protect(target, &non_target, rng_);
  EXPECT_EQ(aaps, 4u);  // step 1 + steps 2-4
  EXPECT_EQ(engine_.stats().cold_swaps, 1u);
}

TEST_F(SwapEngineFixture, WarmSwapCostsThreeAaps) {
  const RowAddr t1{0, 0, 10}, t2{0, 0, 14};
  const RowAddr n1{0, 0, 20}, n2{0, 0, 24};
  engine_.protect(t1, &n1, rng_);
  const u32 aaps = engine_.protect(t2, &n2, rng_);
  EXPECT_EQ(aaps, 3u);  // staged non-target serves as step 1
  EXPECT_EQ(engine_.stats().staged_swaps, 1u);
}

TEST_F(SwapEngineFixture, SteadyStateMatchesPaperTswap) {
  // Over many swaps the marginal cost converges to 3 AAPs = T_swap.
  std::vector<RowAddr> targets, nts;
  for (u32 i = 0; i < 8; ++i) {
    targets.push_back({0, 0, 4 + i * 2});
    nts.push_back({0, 0, 30 + i * 2});
  }
  for (int round = 0; round < 4; ++round) {
    for (usize i = 0; i < targets.size(); ++i) {
      engine_.protect(targets[i], &nts[i], rng_);
    }
  }
  const auto& st = engine_.stats();
  const double avg_aaps = static_cast<double>(st.aaps) / static_cast<double>(st.swaps);
  EXPECT_LT(avg_aaps, 3.1);
  EXPECT_GE(avg_aaps, 3.0);
}

TEST_F(SwapEngineFixture, LogicalDataSurvivesSwaps) {
  const RowAddr target{0, 0, 10};
  const RowAddr non_target{0, 0, 20};
  fill_logical(target, 0xAA);
  fill_logical(non_target, 0xBB);
  for (int i = 0; i < 5; ++i) engine_.protect(target, &non_target, rng_);
  EXPECT_EQ(first_byte(target), 0xAA) << "target data lost through swap chain";
  EXPECT_EQ(first_byte(non_target), 0xBB) << "non-target data lost through staging";
}

TEST_F(SwapEngineFixture, RandomRowDataSurvivesColdSwap) {
  // Whatever random row the cold path picks, its data must be preserved.
  std::vector<u8> fingerprint(cfg_.geo.row_bytes);
  for (u32 r = 0; r < engine_.reserved_base(); ++r) {
    for (usize c = 0; c < fingerprint.size(); ++c) {
      fingerprint[c] = static_cast<u8>(r * 7 + c);
    }
    dev_.poke_row({0, 1, r}, fingerprint);
  }
  const RowAddr target{0, 1, 10};
  engine_.protect(target, nullptr, rng_);
  for (u32 r = 0; r < engine_.reserved_base(); ++r) {
    const RowAddr phys = remap_.to_physical(RowAddr{0, 1, r});
    EXPECT_EQ(dev_.peek(phys, 0), static_cast<u8>(r * 7)) << "row " << r << " corrupted";
  }
}

TEST_F(SwapEngineFixture, SwapRelocatesTarget) {
  const RowAddr target{0, 0, 10};
  engine_.protect(target, nullptr, rng_);
  EXPECT_FALSE(remap_.to_physical(target) == target);
}

TEST_F(SwapEngineFixture, SwapResetsVictimDisturbance) {
  rowhammer::HammerModel hammer(dev_, rowhammer::HammerModelConfig{});
  const RowAddr target{0, 0, 10};
  // Build up disturbance near the threshold.
  rowhammer::HammerAttacker attacker(dev_, sys::Rng(1));
  const RowAddr aggs[2] = {{0, 0, 9}, {0, 0, 11}};
  attacker.hammer(aggs, 500);
  ASSERT_GT(hammer.disturbance(target), 0u);
  engine_.protect(target, nullptr, rng_);
  // The swap's own RowClone ACTs may deposit a disturbance or two on the
  // relocated row when the random row happens to neighbour the target --
  // physically real and harmless (threshold is hundreds).
  EXPECT_LE(hammer.disturbance(remap_.to_physical(target)), 2u);
}

TEST_F(SwapEngineFixture, ResetPipelineForcesColdSwap) {
  const RowAddr t1{0, 0, 10}, n1{0, 0, 20};
  engine_.protect(t1, &n1, rng_);
  engine_.reset_pipeline();
  const u32 aaps = engine_.protect(t1, &n1, rng_);
  EXPECT_EQ(aaps, 4u);
}

// ----------------------------------------------------------- SwapScheduler --

TEST(SwapTimeline, PipelinedMakespanIs3NPlus1) {
  const Picoseconds t_aap = 90'000;
  for (usize n : {1u, 2u, 5u, 10u}) {
    const Timeline tl = build_swap_timeline(n, t_aap, /*pipelined=*/true);
    EXPECT_EQ(tl.makespan, static_cast<Picoseconds>(3 * n + 1) * t_aap) << n;
    EXPECT_EQ(tl.op_count(), 3 * n + 1);
  }
}

TEST(SwapTimeline, SerialMakespanIs4N) {
  const Picoseconds t_aap = 90'000;
  for (usize n : {1u, 2u, 5u, 10u}) {
    const Timeline tl = build_swap_timeline(n, t_aap, /*pipelined=*/false);
    EXPECT_EQ(tl.makespan, static_cast<Picoseconds>(4 * n) * t_aap);
  }
}

TEST(SwapTimeline, OpsAreContiguousAndOrdered) {
  const Timeline tl = build_swap_timeline(3, 90'000, true);
  for (usize i = 1; i < tl.ops.size(); ++i) {
    EXPECT_EQ(tl.ops[i].start, tl.ops[i - 1].end);
  }
  EXPECT_EQ(tl.ops.front().step, 1u);
}

TEST(SwapSchedule, IntervalDividesWindow) {
  sys::LatencyParams timing;
  const Picoseconds interval = swap_interval_for(10, timing, 4800);
  EXPECT_EQ(interval, timing.t_act * 4800 / 10);
  EXPECT_GT(interval, timing.t_swap());
}

TEST(SwapSchedule, InfeasibleWhenTooManyTargets) {
  sys::LatencyParams timing;
  const u64 max_rows = max_protected_rows(timing, 4800);
  EXPECT_EQ(max_rows, static_cast<u64>(timing.t_act * 4800 / timing.t_swap()));
  EXPECT_EQ(swap_interval_for(max_rows * 2, timing, 4800), 0);
  EXPECT_GT(swap_interval_for(max_rows - 1, timing, 4800), 0);
}

// ------------------------------------------------------------- DnnDefender --

class DefenderFixture : public ::testing::Test {
 protected:
  DefenderFixture() : cfg_(make_cfg()), dev_(cfg_), remap_(cfg_.geo) {}

  static DramConfig make_cfg() {
    DramConfig cfg = DramConfig::sim_small();
    cfg.t_rh = 600;
    return cfg;
  }

  DramConfig cfg_;
  DramDevice dev_;
  RowRemapper remap_;
};

TEST_F(DefenderFixture, SwapsHappenOnSchedule) {
  DnnDefender dd(dev_, remap_);
  dd.set_protected_rows({{0, 0, 10}, {0, 1, 10}}, {{0, 0, 20}, {0, 1, 20}});
  EXPECT_TRUE(dd.schedule_feasible());
  // Advance a full window and pump the tick.
  const Picoseconds window = cfg_.timing.t_act * cfg_.t_rh;
  dev_.advance(window);
  dd.tick();
  EXPECT_GE(dd.swap_stats().swaps, 2u) << "each target must be swapped once per window";
}

TEST_F(DefenderFixture, NoTargetsNoSwaps) {
  DnnDefender dd(dev_, remap_);
  dev_.advance(10_ms);
  dd.tick();
  EXPECT_EQ(dd.swap_stats().swaps, 0u);
}

TEST_F(DefenderFixture, IsTargetMatchesInstalledRows) {
  DnnDefender dd(dev_, remap_);
  dd.set_protected_rows({{0, 0, 10}}, {});
  EXPECT_TRUE(dd.is_target({0, 0, 10}));
  EXPECT_FALSE(dd.is_target({0, 0, 11}));
}

TEST_F(DefenderFixture, BlocksWhiteBoxHammer) {
  rowhammer::HammerModelConfig hcfg;
  hcfg.p_vulnerable = 0.2;
  rowhammer::HammerModel hammer(dev_, hcfg);
  DnnDefender dd(dev_, remap_);
  const RowAddr victim{0, 1, 20};
  dd.set_protected_rows({victim}, {{0, 1, 30}});
  rowhammer::HammerAttacker attacker(dev_, sys::Rng(5));
  attacker.set_post_act_hook([&dd] { dd.tick(); });
  std::vector<u8> ones(cfg_.geo.row_bytes, 0xFF);
  dev_.write_row(remap_.to_physical(victim), ones);
  // White-box attacker: chases the victim's physical location each burst.
  for (int burst = 0; burst < 40; ++burst) {
    const RowAddr phys = remap_.to_physical(victim);
    if (phys.row == 0 || phys.row + 1 >= cfg_.geo.rows_per_subarray) continue;
    attacker.double_sided(phys, cfg_.t_rh / 4);
  }
  // Verdict on the victim's *data*, wherever the defense moved it.
  bool corrupted = false;
  for (u8 b : dev_.peek_row(remap_.to_physical(victim))) corrupted |= (b != 0xFF);
  EXPECT_FALSE(corrupted) << "DNN-Defender failed to protect the target row";
  EXPECT_GT(dd.swap_stats().swaps, 0u);
}

TEST_F(DefenderFixture, UnprotectedRowStillBreaks) {
  rowhammer::HammerModelConfig hcfg;
  hcfg.p_vulnerable = 0.2;
  rowhammer::HammerModel hammer(dev_, hcfg);
  DnnDefender dd(dev_, remap_);
  dd.set_protected_rows({{0, 0, 10}}, {});  // protect a different row
  rowhammer::HammerAttacker attacker(dev_, sys::Rng(5));
  attacker.set_post_act_hook([&dd] { dd.tick(); });
  std::vector<u8> ones(cfg_.geo.row_bytes, 0xFF);
  const RowAddr victim{0, 1, 20};
  dev_.write_row(victim, ones);
  const auto res = attacker.double_sided(victim, 3 * cfg_.t_rh);
  EXPECT_TRUE(res.any_flip()) << "defense scope should be limited to targets";
}

TEST_F(DefenderFixture, StagingDisabledStillProtects) {
  rowhammer::HammerModelConfig hcfg;
  hcfg.p_vulnerable = 0.2;
  rowhammer::HammerModel hammer(dev_, hcfg);
  DnnDefenderConfig dcfg;
  dcfg.enable_staging = false;
  DnnDefender dd(dev_, remap_, dcfg);
  const RowAddr victim{0, 1, 20};
  dd.set_protected_rows({victim}, {{0, 1, 30}});
  rowhammer::HammerAttacker attacker(dev_, sys::Rng(5));
  attacker.set_post_act_hook([&dd] { dd.tick(); });
  std::vector<u8> ones(cfg_.geo.row_bytes, 0xFF);
  dev_.write_row(victim, ones);
  for (int burst = 0; burst < 20; ++burst) {
    const RowAddr phys = remap_.to_physical(victim);
    if (phys.row == 0 || phys.row + 1 >= cfg_.geo.rows_per_subarray) continue;
    attacker.double_sided(phys, cfg_.t_rh / 4);
  }
  bool corrupted = false;
  for (u8 b : dev_.peek_row(remap_.to_physical(victim))) corrupted |= (b != 0xFF);
  EXPECT_FALSE(corrupted);
  // Serial swaps: every swap is cold (4 AAPs).
  EXPECT_EQ(dd.swap_stats().staged_swaps, 0u);
}

TEST_F(DefenderFixture, ZeroTargetsIsFeasibleAndInert) {
  DnnDefender dd(dev_, remap_);
  dd.set_protected_rows({}, {});
  EXPECT_TRUE(dd.schedule_feasible());
  EXPECT_EQ(dd.swap_interval(), 0);
  dev_.advance(10_ms);
  dd.tick();
  dev_.advance(10_ms);
  dd.tick();
  EXPECT_EQ(dd.swap_stats().swaps, 0u);
  EXPECT_EQ(dd.stats().maintenance_ops, 0u);
  EXPECT_TRUE(remap_.is_identity());
}

TEST_F(DefenderFixture, InfeasibleScheduleTicksBestEffort) {
  DnnDefender dd(dev_, remap_);
  // More targets than the hammer window has swap slots for: the schedule is
  // infeasible and the defender degrades to best-effort at the rate limit.
  const u64 budget = max_protected_rows(cfg_.timing, cfg_.t_rh);
  std::vector<RowAddr> targets;
  std::vector<RowAddr> non_targets;
  for (u32 bank = 0; bank < cfg_.geo.banks && targets.size() <= 2 * budget; ++bank) {
    for (u32 sa = 0; sa < cfg_.geo.subarrays_per_bank; ++sa) {
      for (u32 row = 0; row + 8 < cfg_.geo.rows_per_subarray; row += 2) {
        targets.push_back({bank, sa, row});
        non_targets.push_back({bank, sa, row + 1});
      }
    }
  }
  ASSERT_GT(targets.size(), budget);
  dd.set_protected_rows(targets, non_targets);
  EXPECT_FALSE(dd.schedule_feasible());
  EXPECT_EQ(dd.swap_interval(), cfg_.timing.t_swap()) << "best-effort at the rate limit";
  // Must make forward progress without faulting or spinning forever.
  dev_.advance(cfg_.timing.t_act * cfg_.t_rh / 4);
  dd.tick();
  EXPECT_GT(dd.swap_stats().swaps, 0u);
  dev_.advance(cfg_.timing.t_act * cfg_.t_rh / 4);
  dd.tick();
  EXPECT_GT(dd.stats().maintenance_ops, 1u);
}

TEST_F(DefenderFixture, StagingDisabledAblationTicksCleanly) {
  DnnDefenderConfig dcfg;
  dcfg.enable_staging = false;
  DnnDefender dd(dev_, remap_, dcfg);
  dd.set_protected_rows({{0, 0, 10}, {0, 1, 10}}, {{0, 0, 20}, {0, 1, 20}});
  EXPECT_TRUE(dd.schedule_feasible());
  const Picoseconds window = cfg_.timing.t_act * cfg_.t_rh;
  dev_.advance(window);
  dd.tick();
  EXPECT_GE(dd.swap_stats().swaps, 2u);
  // The ablation never reuses a staged row: all swaps run cold.
  EXPECT_EQ(dd.swap_stats().staged_swaps, 0u);
  EXPECT_EQ(dd.swap_stats().cold_swaps, dd.swap_stats().swaps);
  EXPECT_GT(dd.stats().time_spent, 0);
}

// --------------------------------------------------------- PriorityProfiler --

class ProfilerFixture : public ::testing::Test {
 protected:
  ProfilerFixture() : model_(testutil::trained_mlp()), qm_(*model_) {
    std::tie(ax_, ay_) = testutil::easy_data().test.head(32);
  }
  std::unique_ptr<nn::Model> model_;
  quant::QuantizedModel qm_;
  nn::Tensor ax_;
  std::vector<u32> ay_;
};

TEST_F(ProfilerFixture, ModelUnchangedAfterProfiling) {
  const auto snap = qm_.snapshot();
  ProfilerConfig cfg;
  cfg.rounds = 2;
  PriorityProfiler profiler(qm_, ax_, ay_, cfg);
  profiler.profile();
  EXPECT_EQ(qm_.hamming_distance(snap), 0u);
}

TEST_F(ProfilerFixture, RoundsProduceDisjointBits) {
  ProfilerConfig cfg;
  cfg.rounds = 3;
  PriorityProfiler profiler(qm_, ax_, ay_, cfg);
  const auto result = profiler.profile();
  EXPECT_EQ(result.round_sizes.size(), 3u);
  std::set<u64> keys;
  for (const auto& bit : result.priority_bits) {
    EXPECT_TRUE(keys.insert(bit.key()).second) << "bit profiled twice";
  }
  EXPECT_EQ(result.total_bits(), keys.size());
}

TEST_F(ProfilerFixture, SecuredSetPrefixes) {
  ProfilerConfig cfg;
  cfg.rounds = 2;
  PriorityProfiler profiler(qm_, ax_, ay_, cfg);
  const auto result = profiler.profile();
  ASSERT_GE(result.total_bits(), 4u);
  const auto small = result.secured_set(3);
  EXPECT_EQ(small.size(), 3u);
  EXPECT_TRUE(small.contains(result.priority_bits[0]));
  EXPECT_FALSE(small.contains(result.priority_bits[3]));
  EXPECT_EQ(result.secured_set().size(), result.total_bits());
}

TEST_F(ProfilerFixture, FirstRoundMatchesPlainBfa) {
  ProfilerConfig cfg;
  cfg.rounds = 1;
  PriorityProfiler profiler(qm_, ax_, ay_, cfg);
  const auto result = profiler.profile();
  auto model2 = testutil::trained_mlp();
  quant::QuantizedModel qm2(*model2);
  attack::ProgressiveBitSearch bfa(qm2, ax_, ay_, attack::BfaConfig{});
  const auto res = bfa.run();
  ASSERT_EQ(result.round_sizes[0], res.steps.size());
  for (usize i = 0; i < res.steps.size(); ++i) {
    EXPECT_EQ(result.priority_bits[i], res.steps[i].loc)
        << "profiler must reuse the attacker's search (paper Sec. 4)";
  }
}

TEST_F(ProfilerFixture, BlockedAttackerProfileMatchesAttackTrajectory) {
  PriorityProfiler profiler(qm_, ax_, ay_);
  const auto profile = profiler.profile_blocked_attacker(8);
  ASSERT_GE(profile.total_bits(), 4u);
  // Replay the fully-blocked attacker: same search, skip = attempted bits,
  // clean model. Its proposals must equal the profile prefix exactly.
  quant::BitSkipSet skip;
  attack::ProgressiveBitSearch search(qm_, ax_, ay_, attack::BfaConfig{});
  for (usize i = 0; i < profile.total_bits(); ++i) {
    const auto rec = search.step(skip);
    ASSERT_TRUE(rec.has_value());
    qm_.flip(rec->loc);  // blocked: undo
    skip.insert(rec->loc);
    EXPECT_EQ(rec->loc, profile.priority_bits[i]) << "divergence at proposal " << i;
  }
}

TEST_F(ProfilerFixture, BlockedAttackerProfileLeavesModelClean) {
  const auto snap = qm_.snapshot();
  PriorityProfiler profiler(qm_, ax_, ay_);
  profiler.profile_blocked_attacker(6);
  EXPECT_EQ(qm_.hamming_distance(snap), 0u);
}

TEST_F(ProfilerFixture, TargetRowsDeduplicated) {
  ProfilerConfig cfg;
  cfg.rounds = 2;
  PriorityProfiler profiler(qm_, ax_, ay_, cfg);
  const auto result = profiler.profile();
  const mapping::WeightMapping mapping(qm_, DramConfig::nn_scaled());
  const auto rows = PriorityProfiler::target_rows(result, mapping);
  std::set<u64> seen;
  for (const auto& r : rows) {
    EXPECT_TRUE(seen.insert(flat_row_id(DramConfig::nn_scaled().geo, r)).second);
  }
  EXPECT_LE(rows.size(), result.total_bits());
  // max_bits truncation yields a prefix.
  const auto fewer = PriorityProfiler::target_rows(result, mapping, 1);
  ASSERT_GE(fewer.size(), 1u);
  EXPECT_EQ(fewer[0], rows[0]);
}

// ------------------------------------------------------------ SecurityModel --

TEST(SecurityAnalytics, AnchorsMatchPaperFig8a) {
  SecurityModel model;
  const auto p = model.analyze(4000);
  EXPECT_NEAR(p.ttb_days_dd, 1180.0, 1.0);
  EXPECT_NEAR(p.ttb_days_shadow, 894.0, 1.0);
  EXPECT_NEAR(p.ttb_days_dd - p.ttb_days_shadow, 286.0, 1.0);  // "DD protects 286 more days"
}

TEST(SecurityAnalytics, TtbScalesLinearlyWithThreshold) {
  SecurityModel model;
  const auto p1 = model.analyze(1000);
  const auto p8 = model.analyze(8000);
  EXPECT_NEAR(p8.ttb_days_dd / p1.ttb_days_dd, 8.0, 0.01);
  // The figure's annotated protection gaps: 71/142/286/572 days.
  EXPECT_NEAR(p1.ttb_days_dd - p1.ttb_days_shadow, 71.5, 1.0);
  EXPECT_NEAR(p8.ttb_days_dd - p8.ttb_days_shadow, 572.0, 2.0);
}

TEST(SecurityAnalytics, DdAlwaysOutlastsShadow) {
  SecurityModel model;
  for (u32 t : {1000u, 2000u, 4000u, 8000u}) {
    const auto p = model.analyze(t);
    EXPECT_GT(p.ttb_days_dd, p.ttb_days_shadow) << t;
  }
}

TEST(SecurityAnalytics, MaxBfaInverselyProportionalToThreshold) {
  SecurityModel model;
  const auto p1 = model.analyze(1000);
  const auto p2 = model.analyze(2000);
  const auto p4 = model.analyze(4000);
  const auto p8 = model.analyze(8000);
  EXPECT_NEAR(static_cast<double>(p1.max_bfa_defended) / p8.max_bfa_defended, 8.0, 0.1);
  // Paper's operating points: ~55K / 28K / 14K / 7K.
  EXPECT_NEAR(static_cast<double>(p1.max_bfa_defended), 55'000, 1'500);
  EXPECT_NEAR(static_cast<double>(p2.max_bfa_defended), 27'500, 1'000);
  EXPECT_NEAR(static_cast<double>(p4.max_bfa_defended), 13'750, 500);
  EXPECT_NEAR(static_cast<double>(p8.max_bfa_defended), 6'875, 250);
}

TEST(SecurityAnalytics, SwapBudgetMatchesWindowArithmetic) {
  SecurityModel model;
  const auto p = model.analyze(4800);
  const auto& t = model.params().timing;
  EXPECT_EQ(p.window, t.t_act * 4800);
  EXPECT_EQ(p.max_swaps_per_window, static_cast<u64>(p.window / t.t_swap()));
}

TEST(SecurityAnalytics, LatencySaturatesAtCapacity) {
  SecurityModel model;
  const u64 cap = model.analyze(4000).max_bfa_defended;
  const double below = model.latency_per_tref_ms("dd", 4000, cap / 10);
  const double at = model.latency_per_tref_ms("dd", 4000, cap);
  const double beyond = model.latency_per_tref_ms("dd", 4000, cap * 10);
  EXPECT_LT(below, at);
  EXPECT_DOUBLE_EQ(at, beyond);  // plateau (Fig. 8b "limitation")
}

TEST(SecurityAnalytics, DdLatencyBelowShadowEverywhere) {
  SecurityModel model;
  for (u32 t : {1000u, 2000u, 4000u, 8000u}) {
    for (u64 n : {7'000ull, 14'000ull, 28'000ull, 55'000ull}) {
      EXPECT_LT(model.latency_per_tref_ms("dd", t, n),
                model.latency_per_tref_ms("shadow", t, n))
          << "t_rh=" << t << " n=" << n;
    }
  }
}

TEST(SecurityAnalytics, PowerComparisons) {
  SecurityModel model;
  // DD saves a small fraction of total power vs SHADOW at 1k (paper: ~1.6%).
  const double dd = model.total_power_mw("dd", 1000);
  const double shadow = model.total_power_mw("shadow", 1000);
  const double saving = (shadow - dd) / shadow;
  EXPECT_GT(saving, 0.005);
  EXPECT_LT(saving, 0.05);
  // Defense-energy improvement vs SRS is large (paper: ~3.4x).
  const double srs_energy = static_cast<double>(model.energy_per_tref("srs", 1000));
  const double dd_energy = static_cast<double>(model.energy_per_tref("dd", 1000));
  EXPECT_GT(srs_energy / dd_energy, 2.0);
}

TEST(SecurityAnalytics, UnknownFrameworkThrows) {
  SecurityModel model;
  EXPECT_THROW(model.latency_per_tref_ms("para", 1000, 1), std::invalid_argument);
}

}  // namespace
}  // namespace dnnd::core
