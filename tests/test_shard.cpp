// Shard protocol tests: deterministic k-of-n partitioning, atomic per-cell
// checkpoints, resume diffing, and the coordinator's byte-identity contract
// (merged shards == single-process sweep, the property the zero-tolerance
// dnnd_diff baseline gate rides on).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "harness/campaign.hpp"
#include "harness/campaign_diff.hpp"
#include "harness/registry.hpp"
#include "harness/shard.hpp"
#include "nn/gemm.hpp"
#include "sys/json.hpp"
#include "sys/rng.hpp"
#include "test_util.hpp"

namespace dnnd::harness {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const char* name) : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const fs::path& path() const { return path_; }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

ScenarioResult make_result(const std::string& id) {
  ScenarioResult r;
  r.id = id;
  r.label = id;
  r.model = "mlp";
  r.defense = "none";
  r.attack = "bfa";
  r.ok = true;
  r.clean_accuracy = 0.9666666667;
  r.post_accuracy = 0.75;
  r.flips = ">8";
  r.trace = {0.9666666667, 0.75};
  return r;
}

TEST(ShardSpec, ParsesCliSpelling) {
  const auto one = parse_shard_spec("1/1");
  EXPECT_EQ(one.index, 0u);
  EXPECT_EQ(one.count, 1u);
  const auto two = parse_shard_spec("2/4");
  EXPECT_EQ(two.index, 1u);
  EXPECT_EQ(two.count, 4u);

  // Malformed specs must throw, never silently drop or duplicate cells.
  for (const char* bad : {"", "/", "1/", "/2", "0/2", "3/2", "2", "a/b", "1/0", "-1/2",
                          "1/2/3", "1 /2", "+1/2", "9999999/9999999"}) {
    EXPECT_THROW(parse_shard_spec(bad), std::invalid_argument) << "\"" << bad << "\"";
  }
}

TEST(ShardSpec, PartitionIsInterleavedDisjointAndComplete) {
  const auto grid = tiny_test_grid();
  ASSERT_GE(grid.size(), 5u);

  for (const usize n : {usize{1}, usize{2}, usize{3}, grid.size(), grid.size() + 3}) {
    std::set<std::string> seen;
    usize total = 0;
    for (usize k = 0; k < n; ++k) {
      const auto shard = shard_scenarios(grid, ShardSpec{.index = k, .count = n});
      total += shard.size();
      for (const auto& sc : shard) {
        EXPECT_TRUE(seen.insert(sc.id).second) << sc.id << " assigned to two shards";
      }
    }
    EXPECT_EQ(total, grid.size()) << n << " shards must cover the grid exactly";
    EXPECT_EQ(seen.size(), grid.size());
  }

  // Interleaved (round-robin): shard k of n owns positions k, k+n, k+2n...
  const auto first = shard_scenarios(grid, ShardSpec{.index = 0, .count = 2});
  const auto second = shard_scenarios(grid, ShardSpec{.index = 1, .count = 2});
  ASSERT_GE(first.size(), 2u);
  EXPECT_EQ(first[0].id, grid[0].id);
  EXPECT_EQ(first[1].id, grid[2].id);
  EXPECT_EQ(second[0].id, grid[1].id);

  EXPECT_THROW(shard_scenarios(grid, ShardSpec{.index = 2, .count = 2}),
               std::invalid_argument);
}

TEST(CellCheckpointStore, CellPathsAreStableSanitizedAndCollisionFree) {
  const CellCheckpointStore store("/run");
  const std::string path = store.cell_path("grid/mlp/lpddr4-new/bfa/none/none");
  EXPECT_EQ(path, store.cell_path("grid/mlp/lpddr4-new/bfa/none/none")) << "must be stable";
  EXPECT_NE(path.find("grid_mlp_lpddr4-new_bfa_none_none"), std::string::npos);
  EXPECT_NE(path.find("/run/cells/"), std::string::npos);
  EXPECT_EQ(path.compare(path.size() - 5, 5, ".json"), 0);

  // Ids that sanitize to the same text still claim distinct files (the
  // stable-hash suffix), so no two grid cells can ever share a checkpoint.
  EXPECT_NE(store.cell_path("a/b"), store.cell_path("a_b"));
  EXPECT_NE(store.cell_path("a/b"), store.cell_path("a.b"));
}

TEST(CellCheckpointStore, WriteLoadRoundTripsAndLeavesNoTempFiles) {
  TempDir tmp("dnnd_shard_store_test");
  const CellCheckpointStore store(tmp.str());
  const auto r = make_result("tiny/bfa");

  EXPECT_EQ(store.load_cell("tiny/bfa"), std::nullopt);
  EXPECT_FALSE(store.has_valid_cell("tiny/bfa"));

  store.write_cell(r);
  const auto loaded = store.load_cell("tiny/bfa");
  ASSERT_TRUE(loaded.has_value());
  sys::JsonWriter a;
  scenario_result_to_json(a, r);
  sys::JsonWriter b;
  scenario_result_to_json(b, *loaded);
  EXPECT_EQ(a.str(), b.str()) << "checkpoint must round-trip byte-exactly";
  EXPECT_TRUE(store.has_valid_cell("tiny/bfa"));

  // The cell file carries exactly the scenario-object serialization
  // (newline-framed), and the atomic publish leaves no temp droppings.
  EXPECT_EQ(slurp(store.cell_path("tiny/bfa")), a.str() + "\n");
  usize files = 0;
  for (const auto& entry : fs::directory_iterator(tmp.path() / "cells")) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".json") << entry.path();
  }
  EXPECT_EQ(files, 1u);

  // Overwriting the same cell (a re-run) is allowed and stays complete.
  store.write_cell(r);
  EXPECT_TRUE(store.has_valid_cell("tiny/bfa"));
}

TEST(CellCheckpointStore, CorruptCellsReadAsAbsentForResumeButFailMerge) {
  TempDir tmp("dnnd_shard_corrupt_test");
  const CellCheckpointStore store(tmp.str());
  store.write_cell(make_result("a/one"));

  // Truncate the checkpoint: resume must re-run it (reads as absent)...
  const std::string path = store.cell_path("a/one");
  const std::string text = slurp(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }
  EXPECT_FALSE(store.has_valid_cell("a/one"));
  EXPECT_THROW(store.load_cell("a/one"), std::exception);

  // ...and a coordinator that merges anyway must fail loudly, not quietly
  // produce a short campaign.
  Scenario sc;
  sc.id = "a/one";
  EXPECT_THROW(merge_cells(store, {sc}), std::exception);

  // A checkpoint whose body carries a different id is corruption too.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    sys::JsonWriter w;
    scenario_result_to_json(w, make_result("a/other"));
    out << w.str() << "\n";
  }
  EXPECT_FALSE(store.has_valid_cell("a/one"));
  EXPECT_THROW(merge_cells(store, {sc}), std::runtime_error);
}

TEST(CellCheckpointStore, SeededMutantsOfACellThrowOrMergeToAStableCampaign) {
  // Loader robustness over one real cell file: the first scenario of the
  // tiny golden, checkpointed as a shard writes it. Every truncated,
  // byte-flipped or spliced mutant either makes merge_cells fail loudly
  // (JsonParseError, or the runtime_error of a cell carrying another id) or
  // merges to a campaign whose to_json() reloads to the same bytes. Any
  // other exception is a loader bug; the sanitizer builds run this too.
  const std::string golden =
      slurp(fs::path(DNND_SOURCE_DIR) / "tests" / "data" / "tiny_grid_baseline.json");
  const ScenarioResult cell = campaign_from_json(golden).results.at(0);
  TempDir tmp("dnnd_shard_mutant_test");
  const CellCheckpointStore store(tmp.str());
  store.write_cell(cell);
  const std::string path = store.cell_path(cell.id);
  const std::string text = slurp(path);
  Scenario sc;
  sc.id = cell.id;
  ASSERT_EQ(merge_cells(store, {sc}).campaign.results.at(0).id, cell.id);

  sys::Rng rng(20240603);
  usize thrown = 0, loaded = 0;
  for (usize i = 0; i < 2000; ++i) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << testutil::seeded_mutant(text, i, rng);
    }
    try {
      const std::string once = merge_cells(store, {sc}).campaign.to_json();
      EXPECT_EQ(campaign_from_json(once).to_json(), once) << "mutant " << i;
      ++loaded;
    } catch (const std::runtime_error&) {  // JsonParseError is one too
      ++thrown;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what();
    }
  }
  EXPECT_GT(thrown, 0u);
  EXPECT_GT(loaded, 0u);
}

TEST(Shard, PendingScenariosDiffsCheckpointsAgainstGrid) {
  TempDir tmp("dnnd_shard_pending_test");
  const CellCheckpointStore store(tmp.str());
  const auto grid = tiny_test_grid();

  // Nothing checkpointed: everything pending, input order preserved.
  auto pending = pending_scenarios(store, grid);
  ASSERT_EQ(pending.size(), grid.size());
  for (usize i = 0; i < grid.size(); ++i) EXPECT_EQ(pending[i].id, grid[i].id);

  // Checkpoint cells 0 and 2 (results faked -- the diff is by id).
  store.write_cell(make_result(grid[0].id));
  store.write_cell(make_result(grid[2].id));
  pending = pending_scenarios(store, grid);
  ASSERT_EQ(pending.size(), grid.size() - 2);
  EXPECT_EQ(pending[0].id, grid[1].id);
  EXPECT_EQ(pending[1].id, grid[3].id);

  // merge refuses while incomplete, naming the missing cells.
  try {
    merge_cells(store, grid);
    FAIL() << "merge of an incomplete run must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("incomplete run"), std::string::npos) << what;
    EXPECT_NE(what.find(grid[1].id), std::string::npos) << what;
  }
}

// The tentpole contract: running the tiny grid as two interleaved shards --
// with one shard interrupted and resumed -- then merging the checkpoints
// yields byte-identical JSON to the single-process sweep, so the existing
// zero-tolerance dnnd_diff baseline gate holds for sharded runs unchanged.
TEST(Shard, TwoShardsWithKillAndResumeMergeByteIdenticalToSingleProcess) {
  TempDir tmp("dnnd_shard_merge_test");
  const CellCheckpointStore store(tmp.str());
  const auto grid = tiny_test_grid();
  ASSERT_GE(grid.size(), 4u);

  CampaignRunner serial(CampaignConfig{.threads = 1});
  const std::string single_process = serial.run(grid).to_json();

  auto run_shard = [&](const std::vector<Scenario>& cells) {
    CampaignConfig cfg;
    cfg.threads = 2;
    cfg.on_result = [&store](const ScenarioResult& r) { store.write_cell(r); };
    CampaignRunner runner(cfg);
    const auto res = runner.run(cells);
    for (const auto& r : res.results) EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
  };

  const auto shard1 = shard_scenarios(grid, ShardSpec{.index = 0, .count = 2});
  const auto shard2 = shard_scenarios(grid, ShardSpec{.index = 1, .count = 2});
  run_shard(shard1);
  run_shard(shard2);

  // Simulate shard 2 having been killed mid-run: delete one of its cells,
  // then resume (pending diff re-runs exactly the lost cell).
  ASSERT_TRUE(fs::remove(store.cell_path(shard2[0].id)));
  const auto lost = pending_scenarios(store, shard2);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].id, shard2[0].id);
  run_shard(lost);
  EXPECT_TRUE(pending_scenarios(store, grid).empty());

  const auto merged = merge_cells(store, grid);
  EXPECT_EQ(merged.json, single_process)
      << "merged shards must be byte-identical to the single-process sweep";
  EXPECT_TRUE(diff_campaigns(campaign_from_json(single_process), merged.campaign).ok());
  // And the re-serialized parsed form matches too (what a sink would write).
  EXPECT_EQ(merged.campaign.to_json(), single_process);
}

TEST(Campaign, OnResultHookFiresOncePerScenarioFromWorkers) {
  const auto grid = tiny_test_grid();
  std::mutex mu;
  std::multiset<std::string> seen;
  CampaignConfig cfg;
  cfg.threads = 3;
  cfg.on_result = [&](const ScenarioResult& r) {
    const std::lock_guard<std::mutex> lock(mu);
    seen.insert(r.id);
  };
  CampaignRunner runner(cfg);
  const auto res = runner.run(grid);
  EXPECT_EQ(seen.size(), grid.size());
  for (const auto& sc : grid) {
    EXPECT_EQ(seen.count(sc.id), 1u) << sc.id;
  }
  EXPECT_EQ(res.results.size(), grid.size());
}

TEST(Campaign, OnResultHookFailureFailsTheRunAfterCompleting) {
  const auto grid = tiny_test_grid();
  std::atomic<usize> calls{0};
  CampaignConfig cfg;
  cfg.threads = 2;
  cfg.on_result = [&](const ScenarioResult&) {
    ++calls;
    throw std::runtime_error("disk full");
  };
  CampaignRunner runner(cfg);
  try {
    runner.run(grid);
    FAIL() << "a failing checkpoint hook must fail the run";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("disk full"), std::string::npos);
  }
  // Every scenario still ran (the sweep is not aborted mid-flight)...
  EXPECT_EQ(calls.load(), grid.size());
  // ...and the GEMM override was restored through the exception path (the
  // ThreadsGuard satellite: a manual set/restore pair would have leaked).
  EXPECT_EQ(nn::gemm::threads_setting(), 0u);
}

TEST(ThreadsGuard, RestoresSettingAcrossExceptions) {
  ASSERT_EQ(nn::gemm::threads_setting(), 0u) << "test assumes the process default";
  try {
    const nn::gemm::ThreadsGuard guard;
    nn::gemm::set_threads(7);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(nn::gemm::threads_setting(), 0u);
}

}  // namespace
}  // namespace dnnd::harness
