// bench_grid: sweeps the full evaluation cross product -- attack kind x
// software prep x defense x model x device generation -- through the parallel
// scenario harness, prints the campaign table, and persists the campaign
// JSON through the configured CampaignSink (DNND_JSON / DNND_JSON_OUT).
//
// Axes default to the paper-shaped grid and are overridable with
// comma-separated env lists (defaults in parentheses, wider accepted
// vocabulary after "of"):
//   DNND_GRID_MODELS   (vgg11,resnet18,resnet20,resnet34)
//   DNND_GRID_GENS     (lpddr4-new,ddr4-new) of any device_gen_slug value
//   DNND_GRID_ATTACKS  (bfa,binary-bfa,random,adaptive,dram-white-box,
//                       tbfa-n-to-1,tbfa-1-to-1,tbfa-stealthy)
//   DNND_GRID_PREPS    (none,binary-finetune,piecewise-clustering,
//                       reconstruction-guard)
//   DNND_GRID_DEFENSES (none,rrs,srs,shadow,dnn-defender) of none, para,
//                       rrs, srs, shadow, graphene, hydra, dnn-defender
//   DNND_GRID_FULL_PRODUCT=1 keeps cells whose defense cannot engage the
//                            attack (normally pruned).
//
// `bench_grid --tiny` (or DNND_GRID=tiny) runs the seconds-fast
// tiny_test_grid() instead -- the grid behind the committed regression
// baseline that CI gates with dnnd_diff.
//
// `--shard K/N --dir DIR [--resume]` runs one shard of the grid through the
// resumable run-directory protocol (harness/shard.hpp): each finished cell
// is checkpointed atomically to DIR/cells/, `--resume` re-runs only cells
// without a checkpoint, and `dnnd_shard merge --dir DIR` stitches the shards
// back into a campaign document byte-identical to the unsharded sweep.
#include <cstring>

#include "bench_util.hpp"
#include "harness/campaign.hpp"
#include "harness/registry.hpp"
#include "harness/shard.hpp"
#include "harness/sink.hpp"

using namespace dnnd;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--tiny] [--shard K/N --dir DIR [--resume]]\n"
               "  --tiny        run the seconds-fast tiny_test_grid() (CI baseline)\n"
               "  --shard K/N   run only shard K of N through the resumable\n"
               "                run-directory protocol (requires --dir)\n"
               "  --dir DIR     shard run directory (cells land in DIR/cells/)\n"
               "  --resume      skip cells already checkpointed in DIR\n"
               "  axes/env knobs are documented in the header comment and README;\n"
               "  merge shards with: dnnd_shard merge --dir DIR\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  bool resume = false;
  std::string shard_spec;
  std::string shard_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--shard") {
      const char* v = next_value();
      if (v == nullptr || v[0] == '\0') return usage(argv[0]);
      shard_spec = v;
    } else if (arg == "--dir") {
      const char* v = next_value();
      if (v == nullptr || v[0] == '\0') return usage(argv[0]);
      shard_dir = v;
    } else if (arg == "--resume") {
      resume = true;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg.c_str());
      return usage(argv[0]);
    }
  }
  if ((resume || !shard_spec.empty() || !shard_dir.empty()) &&
      (shard_spec.empty() || shard_dir.empty())) {
    std::fprintf(stderr, "%s: --shard and --dir go together (--resume needs both)\n",
                 argv[0]);
    return usage(argv[0]);
  }
  if (const char* v = std::getenv("DNND_GRID"); v != nullptr && std::string(v) == "tiny") {
    tiny = true;
  }

  const bool small = bench::small_scale();
  const bool sharded = !shard_spec.empty();
  if (tiny) {
    bench::banner("Grid sweep -- tiny regression grid",
                  "tiny_test_grid(): every attack path in seconds (CI baseline)");
  } else {
    bench::banner("Grid sweep -- attack x prep x defense x model x generation",
                  "full cross-product sweep of the paper's evaluation axes");
  }
  std::vector<harness::Scenario> grid;
  harness::ShardSpec shard;
  try {
    grid = harness::grid_from_env(tiny, small);
    if (sharded) {
      shard = harness::parse_shard_spec(shard_spec);
      const usize total = grid.size();
      grid = harness::shard_scenarios(grid, shard);
      const usize owned = grid.size();
      if (resume) {
        grid = harness::pending_scenarios(harness::CellCheckpointStore(shard_dir), grid);
      }
      std::printf("[grid] shard %zu/%zu: %zu of %zu owned cells to run (%zu grid total)\n",
                  shard.index + 1, shard.count, grid.size(), owned, total);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_grid: bad axis or shard value: %s\n", e.what());
    return 2;
  }
  std::printf("[grid] %zu scenarios\n", grid.size());

  harness::CampaignConfig cfg;
  cfg.threads = harness::env_threads();
  cfg.verbose = true;
  if (sharded) {
    const harness::CellCheckpointStore store(shard_dir);
    cfg.on_result = [store](const harness::ScenarioResult& r) { store.write_cell(r); };
  }
  harness::CampaignRunner runner(cfg);
  harness::CampaignResult campaign;
  try {
    campaign = runner.run(grid);
  } catch (const std::exception& e) {
    // A cell that cannot be checkpointed fails the shard loudly.
    std::fprintf(stderr, "bench_grid: %s\n", e.what());
    return 1;
  }

  campaign.table().print();
  std::printf("[harness] %zu scenarios on %zu threads in %.1fs (%.2f scenarios/s)\n",
              campaign.results.size(), campaign.threads_used, campaign.total_seconds,
              campaign.total_seconds > 0.0
                  ? static_cast<double>(campaign.results.size()) / campaign.total_seconds
                  : 0.0);

  usize failures = 0;
  if (sharded) {
    // A shard's campaign is partial by construction: the durable artifact is
    // its cell checkpoints, merged later by the coordinator -- not a
    // whole-campaign document through the sink.
    std::printf("[shard] %zu cells checkpointed to %s (merge: dnnd_shard merge --dir %s)\n",
                campaign.results.size(), shard_dir.c_str(), shard_dir.c_str());
  } else {
    // A sink failure after an hours-long sweep must not abort: the table
    // above already carries the results. It still fails the run -- CI gates
    // on the persisted JSON existing.
    std::string destination;
    switch (harness::write_campaign_from_env(campaign, &destination)) {
      case harness::SinkWriteStatus::kNoSink:
        break;
      case harness::SinkWriteStatus::kWritten:
        if (destination != "stdout") {
          std::printf("[sink] campaign JSON -> %s\n", destination.c_str());
        }
        break;
      case harness::SinkWriteStatus::kFailed:
        ++failures;  // already reported on stderr
        break;
    }
  }

  // A failed scenario is a broken sweep, not a defended model -- surface it.
  for (const auto& r : campaign.results) {
    if (!r.ok) {
      std::fprintf(stderr, "[grid] FAILED %s: %s\n", r.id.c_str(), r.error.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
