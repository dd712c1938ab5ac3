#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "dram/dram_device.hpp"
#include "dram/row_remapper.hpp"
#include "harness/campaign.hpp"
#include "harness/campaign_diff.hpp"
#include "harness/registry.hpp"
#include "harness/sink.hpp"
#include "nn/gemm.hpp"
#include "nn/simd.hpp"
#include "sys/json.hpp"
#include "test_util.hpp"

namespace dnnd::harness {
namespace {

/// Seconds-fast enumerate_grid spec exercising the new axes: two attack
/// kinds and a SoftwarePrep variant on the tiny MLP.
GridSpec mini_axes_spec() {
  GridSpec spec;
  spec.models = {"mlp"};
  spec.generations = {dram::DeviceGen::kLpddr4New};
  spec.attacks = {AttackKind::kBfa, AttackKind::kDramWhiteBox};
  spec.preps = {"none", "piecewise-clustering", "reconstruction-guard"};
  spec.defenses = {"none", "rrs"};
  spec.dataset = DatasetKind::kTinyEasy;
  spec.small = true;
  return spec;
}

/// The committed tiny-grid golden, raw bytes (newline-terminated sink form).
std::string read_golden_text() {
  const std::string path = std::string(DNND_SOURCE_DIR) + "/tests/data/tiny_grid_baseline.json";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing baseline " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Scenario, SeedDerivesFromIdNotThreadOrder) {
  Scenario a;
  a.id = "grid/resnet20/lpddr4-new/rrs";
  Scenario b;
  b.id = "grid/resnet20/lpddr4-new/srs";
  EXPECT_EQ(scenario_seed(a), sys::stable_hash64(a.id));
  EXPECT_NE(scenario_seed(a), scenario_seed(b)) << "distinct ids must give distinct seeds";
  a.seed_override = 42;
  EXPECT_EQ(scenario_seed(a), 42u);
}

TEST(Registry, GridsEnumerateWithUniqueIds) {
  for (const bool small : {true, false}) {
    const auto t3 = table3_scenarios(small);
    EXPECT_EQ(t3.size(), 10u) << "paper Table 3 has 10 rows";
    const auto f1b = fig1b_scenarios(small);
    EXPECT_EQ(f1b.size(), 3u) << "paper Fig. 1(b) has 3 curves";
    std::set<std::string> ids;
    for (const auto& sc : t3) EXPECT_TRUE(ids.insert(sc.id).second) << sc.id;
    for (const auto& sc : f1b) EXPECT_TRUE(ids.insert(sc.id).second) << sc.id;
  }
  GridSpec spec;
  spec.models = {"resnet20", "vgg11"};
  spec.generations = {dram::DeviceGen::kLpddr4New, dram::DeviceGen::kDdr4New};
  spec.defenses = {"none", "rrs", "dnn-defender"};
  const auto grid = enumerate_grid(spec);
  EXPECT_EQ(grid.size(), 2u * 2u * 3u);
  std::set<std::string> ids;
  for (const auto& sc : grid) {
    EXPECT_TRUE(ids.insert(sc.id).second) << "duplicate id " << sc.id;
    EXPECT_EQ(sc.attack, AttackKind::kDramWhiteBox);
  }
}

TEST(Registry, UnknownMitigationThrows) {
  EXPECT_THROW(mitigation_factory("prince-of-persia"), std::invalid_argument);
  EXPECT_THROW(mitigation_factory(""), std::invalid_argument);
}

TEST(Registry, MitigationFactoryConstructsEveryKnownDefense) {
  const auto cfg = dram::DramConfig::sim_small();
  dram::DramDevice dev(cfg);
  dram::RowRemapper remap(cfg.geo);
  for (const char* name : {"para", "rrs", "srs", "shadow", "graphene", "hydra"}) {
    const MitigationFactory factory = mitigation_factory(name);
    ASSERT_TRUE(factory) << name;
    EXPECT_NE(factory(dev, remap), nullptr) << name;
  }
}

TEST(Registry, AxisSlugsRoundTrip) {
  for (const auto gen : kAllDeviceGens) {
    EXPECT_EQ(device_gen_from_slug(device_gen_slug(gen)), gen);
    EXPECT_NE(device_gen_slug(gen), "unknown");
  }
  EXPECT_THROW(device_gen_from_slug("ddr9-future"), std::invalid_argument);

  for (const auto kind : kAllAttackKinds) {
    EXPECT_EQ(attack_kind_from_string(to_string(kind)), kind);
    EXPECT_NE(to_string(kind), "unknown");
  }
  EXPECT_THROW(attack_kind_from_string("voltage-glitch"), std::invalid_argument);

  for (const auto prep : kAllSoftwarePreps) {
    EXPECT_EQ(software_prep_from_string(to_string(prep)), prep);
    EXPECT_NE(to_string(prep), "unknown");
  }
  EXPECT_TRUE(is_known_prep_axis("reconstruction-guard"));
  EXPECT_FALSE(is_known_prep_axis("prayer"));
}

TEST(Registry, AttackKindVocabularyStaysInSync) {
  // Walk the enum by ordinal, not the array: an enumerator missing from
  // kAllAttackKinds still reaches to_string here, and its slug then fails
  // attack_kind_from_string (which resolves through the array) -- so this
  // catches array/switch drift that iterating the array alone cannot. The
  // static_assert next to the array pins the count itself.
  for (usize i = 0; i < kAttackKindCount; ++i) {
    const auto kind = static_cast<AttackKind>(i);
    ASSERT_NE(to_string(kind), "unknown") << "ordinal " << i;
    EXPECT_EQ(attack_kind_from_string(to_string(kind)), kind)
        << "slug " << to_string(kind) << " does not round-trip";
  }
  // Slugs are unique (two kinds sharing one would make from_string ambiguous).
  std::set<std::string> slugs;
  for (const auto kind : kAllAttackKinds) slugs.insert(to_string(kind));
  EXPECT_EQ(slugs.size(), kAttackKindCount);

  // The default DNND_GRID_ATTACKS axis is the full vocabulary, in array
  // order: a kind left out of the default axis silently vanishes from every
  // sweep that doesn't override it.
  const char* saved = std::getenv("DNND_GRID_ATTACKS");
  const std::string saved_copy = saved != nullptr ? saved : "";
  ASSERT_EQ(unsetenv("DNND_GRID_ATTACKS"), 0);
  const GridSpec spec = grid_spec_from_env(/*small=*/true);
  const std::vector<AttackKind> expected(std::begin(kAllAttackKinds),
                                         std::end(kAllAttackKinds));
  EXPECT_EQ(spec.attacks, expected);
  if (saved != nullptr) ASSERT_EQ(setenv("DNND_GRID_ATTACKS", saved_copy.c_str(), 1), 0);
}

TEST(Registry, UnknownAttackSlugErrorListsValidVocabulary) {
  // The error is the documentation at the moment of the typo: it must name
  // every valid slug, and the env-parse path must say WHICH variable held it.
  try {
    attack_kind_from_string("voltage-glitch");
    FAIL() << "unknown slug must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("voltage-glitch"), std::string::npos) << what;
    for (const auto kind : kAllAttackKinds) {
      EXPECT_NE(what.find(to_string(kind)), std::string::npos)
          << "missing slug " << to_string(kind) << " in: " << what;
    }
  }

  ASSERT_EQ(setenv("DNND_GRID_ATTACKS", "bfa,voltage-glitch", 1), 0);
  try {
    grid_spec_from_env(/*small=*/true);
    FAIL() << "unknown env slug must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DNND_GRID_ATTACKS"), std::string::npos) << what;
    EXPECT_NE(what.find("voltage-glitch"), std::string::npos) << what;
    EXPECT_NE(what.find("tbfa-n-to-1"), std::string::npos) << what;
  }
  ASSERT_EQ(unsetenv("DNND_GRID_ATTACKS"), 0);
}

TEST(Registry, FullCrossProductHasUniqueStableIds) {
  GridSpec spec;
  spec.models = {"resnet20", "vgg11"};
  spec.generations = {dram::DeviceGen::kLpddr4New, dram::DeviceGen::kDdr4New};
  spec.attacks = {AttackKind::kBfa, AttackKind::kBinaryBfa, AttackKind::kRandom,
                  AttackKind::kAdaptive, AttackKind::kDramWhiteBox};
  spec.preps = {"none", "binary-finetune", "piecewise-clustering", "reconstruction-guard"};
  spec.defenses = {"none", "para", "rrs",    "srs",
                   "shadow", "graphene", "hydra", "dnn-defender"};

  // Unpruned: the literal cross product of all five axes.
  spec.prune_incoherent = false;
  const auto full = enumerate_grid(spec);
  EXPECT_EQ(full.size(), 2u * 2u * 5u * 4u * 8u);
  std::set<std::string> ids;
  for (const auto& sc : full) {
    EXPECT_TRUE(ids.insert(sc.id).second) << "duplicate id " << sc.id;
    EXPECT_EQ(sc.id.rfind("grid/", 0), 0u) << sc.id;
  }

  // Pruned: per (model, gen) -- kBfa pairs with all 4 preps but only
  // defense "none"; kBinaryBfa/kRandom lose the reconstruction guard;
  // kAdaptive also allows full-coverage dnn-defender; kDramWhiteBox takes
  // every defense.
  spec.prune_incoherent = true;
  const auto pruned = enumerate_grid(spec);
  const usize per_cell = 4 * 1 + 3 * 1 + 3 * 1 + 3 * 2 + 3 * 8;
  EXPECT_EQ(pruned.size(), 2u * 2u * per_cell);
  for (const auto& sc : pruned) {
    // Recover the prep/defense axis values from the id's last two segments.
    const auto last = sc.id.rfind('/');
    const auto prev = sc.id.rfind('/', last - 1);
    const std::string defense_axis = sc.id.substr(last + 1);
    const std::string prep_axis = sc.id.substr(prev + 1, last - prev - 1);
    EXPECT_TRUE(grid_cell_coherent(sc.attack, prep_axis, defense_axis)) << sc.id;
  }

  // Stable: a second enumeration yields the same ids in the same order.
  const auto again = enumerate_grid(spec);
  ASSERT_EQ(again.size(), pruned.size());
  for (usize i = 0; i < pruned.size(); ++i) EXPECT_EQ(again[i].id, pruned[i].id);

  // Unknown axis values are rejected up front -- even when pruning would
  // have dropped every cell naming them (e.g. a typo'd defense with no
  // dram-white-box attack in the grid).
  GridSpec bad = mini_axes_spec();
  bad.preps = {"quantum-annealing"};
  EXPECT_THROW(enumerate_grid(bad), std::invalid_argument);
  bad = mini_axes_spec();
  bad.defenses = {"prince-of-persia"};
  bad.attacks = {AttackKind::kBfa};
  EXPECT_THROW(enumerate_grid(bad), std::invalid_argument);
  bad = mini_axes_spec();
  bad.models = {"resnet2"};
  EXPECT_THROW(enumerate_grid(bad), std::invalid_argument);
}

TEST(Registry, MiniAxesGridEnumeratesExpectedCells) {
  const auto grid = enumerate_grid(mini_axes_spec());
  const std::vector<std::string> expected = {
      "grid/mlp/lpddr4-new/bfa/none/none",
      "grid/mlp/lpddr4-new/bfa/piecewise-clustering/none",
      "grid/mlp/lpddr4-new/bfa/reconstruction-guard/none",
      "grid/mlp/lpddr4-new/dram-white-box/none/none",
      "grid/mlp/lpddr4-new/dram-white-box/none/rrs",
      "grid/mlp/lpddr4-new/dram-white-box/piecewise-clustering/none",
      "grid/mlp/lpddr4-new/dram-white-box/piecewise-clustering/rrs",
  };
  ASSERT_EQ(grid.size(), expected.size());
  for (usize i = 0; i < expected.size(); ++i) EXPECT_EQ(grid[i].id, expected[i]);

  // Axis values land in the scenario fields they configure.
  EXPECT_TRUE(grid[2].reconstruction_guard);
  EXPECT_EQ(grid[1].prep, SoftwarePrep::kPiecewiseClustering);
  EXPECT_EQ(grid[1].defense, "piecewise-clustering");
  EXPECT_TRUE(static_cast<bool>(grid[4].mitigation));
  EXPECT_EQ(grid[6].defense, "piecewise-clustering+rrs");
}

TEST(Campaign, ScenarioErrorsAreCapturedNotThrown) {
  Scenario sc;
  sc.id = "bad/unknown-arch";
  sc.dataset = DatasetKind::kTinyEasy;
  sc.train = TrainSpec{.arch = "no-such-arch", .width_mult = 1, .epochs = 1, .seed = 1};
  CampaignRunner runner(CampaignConfig{.threads = 1});
  const auto res = runner.run({sc});
  ASSERT_EQ(res.results.size(), 1u);
  EXPECT_FALSE(res.results[0].ok);
  EXPECT_FALSE(res.results[0].error.empty());
  // Reporting still works on a failed campaign.
  EXPECT_NE(res.table().to_string().find("ERROR"), std::string::npos);
  EXPECT_NE(res.to_json().find("\"ok\":false"), std::string::npos);
}

TEST(Campaign, VwaZeroBudgetCellFails) {
  // A limited-bit attack with no bits is a configuration error, not an
  // empty "0 (budget)" result.
  const auto grid = tiny_test_grid();
  const auto it = std::find_if(grid.begin(), grid.end(),
                               [](const Scenario& sc) { return sc.id == "tiny/vwa-limited"; });
  ASSERT_NE(it, grid.end());
  Scenario sc = *it;
  sc.vwa_budget = 0;
  ArtifactCache cache;
  const ScenarioResult r = CampaignRunner::run_scenario(sc, cache);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "vwa-limited: flip_budget must be nonzero");
}

TEST(Json, WriterShapesAreWellFormed) {
  sys::JsonWriter w;
  w.begin_object();
  w.key("name").value("a \"quoted\"\nstring");
  w.key("pi").value(3.25);
  w.key("n").value(static_cast<u64>(7));
  w.key("list").begin_array().value(1.0).value(2.0).end_array();
  w.key("nested").begin_object().key("ok").value(true).end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a \\\"quoted\\\"\\nstring\",\"pi\":3.25,\"n\":7,"
            "\"list\":[1,2],\"nested\":{\"ok\":true}}");
}

// The tentpole regression: the same scenario grid must yield byte-identical
// result tables and JSON for every thread count -- results depend on scenario
// ids (seeds) and budgets, never on the schedule that executed them. The grid
// is tiny_test_grid() plus an enumerate_grid sweep over the new axes, so it
// covers two AttackKinds and a SoftwarePrep variant coming through GridSpec.
TEST(Campaign, DeterministicAcrossThreadCounts) {
  auto grid = tiny_test_grid();
  ASSERT_GE(grid.size(), 5u) << "grid should cover every attack path";
  const auto axes = enumerate_grid(mini_axes_spec());
  grid.insert(grid.end(), axes.begin(), axes.end());
  {
    std::set<AttackKind> attacks;
    bool has_prep = false;
    for (const auto& sc : axes) {
      attacks.insert(sc.attack);
      has_prep = has_prep || sc.prep != SoftwarePrep::kNone;
    }
    ASSERT_GE(attacks.size(), 2u) << "axes grid must span two attack kinds";
    ASSERT_TRUE(has_prep) << "axes grid must include a SoftwarePrep variant";
  }

  std::vector<usize> thread_counts = {1, 4,
                                      std::max<usize>(1, std::thread::hardware_concurrency())};
  std::vector<std::string> tables;
  std::vector<std::string> jsons;
  for (const usize threads : thread_counts) {
    CampaignRunner runner(CampaignConfig{.threads = threads});
    const auto res = runner.run(grid);
    ASSERT_EQ(res.results.size(), grid.size());
    for (usize i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(res.results[i].id, grid[i].id) << "result order must match input order";
      EXPECT_TRUE(res.results[i].ok) << res.results[i].id << ": " << res.results[i].error;
    }
    tables.push_back(res.table().to_string());
    jsons.push_back(res.to_json());
  }
  for (usize i = 1; i < thread_counts.size(); ++i) {
    EXPECT_EQ(tables[0], tables[i])
        << "table differs between 1 thread and " << thread_counts[i] << " threads";
    EXPECT_EQ(jsons[0], jsons[i])
        << "JSON differs between 1 thread and " << thread_counts[i] << " threads";
  }
}

// The engine-threading regression: the same grid must be byte-identical no
// matter how the thread budget splits between scenario workers and each
// scenario's GEMM team. A 2-scenario grid under a budget of 8 forces a
// 4-thread GEMM team inside every worker (the leftover-budget split in
// CampaignRunner::run); the whole tiny grid under budgets 1/2/hw covers the
// workers-saturate-the-budget regime. All runs must match the
// single-threaded bytes exactly.
TEST(Campaign, DeterministicAcrossGemmTeamSplits) {
  const auto grid = tiny_test_grid();
  ASSERT_GE(grid.size(), 2u);
  const std::vector<Scenario> pair(grid.begin(), grid.begin() + 2);

  CampaignRunner serial(CampaignConfig{.threads = 1});
  const std::string pair_base = serial.run(pair).to_json();
  const std::string grid_base = serial.run(grid).to_json();

  {
    // 2 workers x 4 GEMM threads each.
    CampaignRunner runner(CampaignConfig{.threads = 8});
    EXPECT_EQ(runner.run(pair).to_json(), pair_base)
        << "in-scenario GEMM teams changed campaign bytes";
  }
  for (const usize budget : {usize{2}, usize{4},
                             std::max<usize>(1, std::thread::hardware_concurrency())}) {
    CampaignRunner runner(CampaignConfig{.threads = budget});
    EXPECT_EQ(runner.run(grid).to_json(), grid_base) << "budget " << budget;
  }
  // The split is restored afterwards: the campaign must not leak its GEMM
  // team override into the process.
  EXPECT_EQ(nn::gemm::threads_setting(), 0u);
}

// Golden-file cross-check of the same property: the committed baseline must
// be reproduced at zero tolerance with an in-scenario GEMM team forced on
// (dnnd_diff semantics via diff_campaigns).
TEST(Campaign, GoldenBaselineStableUnderGemmThreads) {
  const std::string path =
      std::string(DNND_SOURCE_DIR) + "/tests/data/tiny_grid_baseline.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing baseline " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto baseline = campaign_from_json(ss.str());

  const auto grid = tiny_test_grid();
  // threads == grid size would split the budget to 1 GEMM thread per worker;
  // an oversized budget hands every worker a team of >= 2.
  CampaignRunner runner(CampaignConfig{.threads = grid.size() * 2});
  const auto res = runner.run(grid);
  for (const auto& r : res.results) ASSERT_TRUE(r.ok) << r.id << ": " << r.error;
  const auto report = diff_campaigns(baseline, campaign_from_json(res.to_json()));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// Engine-equivalence gates for the ProbeEngine refactor: every pre-existing
// attack kind's campaign JSON must stay byte-identical to the committed
// golden across the thread counts CI runs (DNND_THREADS={1,4}) and under the
// forced-scalar SIMD leg (DNND_SIMD=0). The golden's bytes predate the
// engine for those cells, so a match proves the drivers reproduce the
// per-family loops exactly.
TEST(Campaign, GoldenBaselineStableAcrossThreadCounts) {
  const std::string golden = read_golden_text();
  for (const usize threads : {usize{1}, usize{4}}) {
    CampaignRunner runner(CampaignConfig{.threads = threads});
    const auto res = runner.run(tiny_test_grid());
    for (const auto& r : res.results) ASSERT_TRUE(r.ok) << r.id << ": " << r.error;
    EXPECT_EQ(res.to_json() + "\n", golden) << "threads=" << threads;
  }
}

TEST(Campaign, GoldenBaselineStableUnderForcedScalarSimd) {
  const std::string golden = read_golden_text();
  const testutil::SimdGuard guard;
  nn::simd::set_scalar_override(1);
  ASSERT_EQ(nn::simd::active_isa(), nn::simd::Isa::kScalar);
  CampaignRunner runner(CampaignConfig{.threads = 2});
  const auto res = runner.run(tiny_test_grid());
  for (const auto& r : res.results) ASSERT_TRUE(r.ok) << r.id << ": " << r.error;
  EXPECT_EQ(res.to_json() + "\n", golden);
}

TEST(Campaign, RepeatedRunsOnWarmCacheAreIdentical) {
  // Two runs through the SAME runner (second run hits the artifact cache):
  // cached artifacts must be indistinguishable from freshly built ones.
  const auto grid = tiny_test_grid();
  CampaignRunner runner(CampaignConfig{.threads = 2});
  const auto first = runner.run(grid);
  const auto second = runner.run(grid);
  EXPECT_EQ(first.to_json(), second.to_json());
}

// Golden-file regression: the committed tiny_test_grid() baseline must be
// reproduced exactly (the harness is deterministic by construction), and the
// persisted form must survive a parse round trip. Regenerate after an
// intentional result change with:  DNND_REGEN_GOLDEN=1 ./test_harness
TEST(Campaign, GoldenTinyGridBaselineMatches) {
  const std::string path =
      std::string(DNND_SOURCE_DIR) + "/tests/data/tiny_grid_baseline.json";

  CampaignRunner runner(CampaignConfig{.threads = 2});
  const auto res = runner.run(tiny_test_grid());
  for (const auto& r : res.results) EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
  const std::string json = res.to_json() + "\n";  // sink framing: newline-terminated

  // Round trip through the parser is byte-exact.
  ASSERT_EQ(campaign_from_json(json).to_json() + "\n", json);

  if (std::getenv("DNND_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << json;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing baseline " << path
                  << " -- regenerate with DNND_REGEN_GOLDEN=1";
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string baseline_text = ss.str();

  // Exact textual match, and a zero-tolerance dnnd_diff-style comparison of
  // the two persisted forms (what CI gates: both diff sides come from disk,
  // i.e. through the "%.10g" serialization).
  EXPECT_EQ(baseline_text, json);
  const auto report =
      diff_campaigns(campaign_from_json(baseline_text), campaign_from_json(json));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Campaign, ByIdLooksUpAndThrows) {
  CampaignResult res;
  ScenarioResult r;
  r.id = "x";
  res.results.push_back(r);
  EXPECT_EQ(res.by_id("x").id, "x");
  EXPECT_THROW(res.by_id("missing"), std::out_of_range);
}

}  // namespace
}  // namespace dnnd::harness
