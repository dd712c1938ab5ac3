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
// baseline that CI gates with dnnd_diff. Sharded, resumable runs of the same
// grids go through `dnnd_shard run`.
#include "bench_util.hpp"
#include "harness/campaign.hpp"
#include "harness/registry.hpp"
#include "harness/sink.hpp"

using namespace dnnd;

int main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--tiny") {
      tiny = true;
    } else {
      std::fprintf(stderr,
                   "%s: unknown argument '%s'\n"
                   "usage: %s [--tiny]\n"
                   "  --tiny  run the seconds-fast tiny_test_grid() (CI baseline)\n"
                   "  axes/env knobs are documented in the header comment and README;\n"
                   "  sharded runs: dnnd_shard run --shard K/N --dir DIR\n",
                   argv[0], argv[i], argv[0]);
      return 2;
    }
  }
  if (const char* v = std::getenv("DNND_GRID"); v != nullptr && std::string(v) == "tiny") {
    tiny = true;
  }

  if (tiny) {
    bench::banner("Grid sweep -- tiny regression grid",
                  "tiny_test_grid(): every attack path in seconds (CI baseline)");
  } else {
    bench::banner("Grid sweep -- attack x prep x defense x model x generation",
                  "full cross-product sweep of the paper's evaluation axes");
  }
  std::vector<harness::Scenario> grid;
  try {
    grid = harness::grid_from_env(tiny, bench::small_scale());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_grid: bad axis value: %s\n", e.what());
    return 2;
  }
  std::printf("[grid] %zu scenarios\n", grid.size());

  harness::CampaignConfig cfg;
  cfg.threads = harness::env_threads();
  cfg.verbose = true;
  harness::CampaignRunner runner(cfg);
  const harness::CampaignResult campaign = runner.run(grid);

  campaign.table().print();
  std::printf("[harness] %zu scenarios on %zu threads in %.1fs (%.2f scenarios/s)\n",
              campaign.results.size(), campaign.threads_used, campaign.total_seconds,
              campaign.total_seconds > 0.0
                  ? static_cast<double>(campaign.results.size()) / campaign.total_seconds
                  : 0.0);

  // A sink failure after an hours-long sweep must not abort: the table above
  // already carries the results. It still fails the run -- CI gates on the
  // persisted JSON existing.
  usize failures = 0;
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

  // A failed scenario is a broken sweep, not a defended model -- surface it.
  for (const auto& r : campaign.results) {
    if (!r.ok) {
      std::fprintf(stderr, "[grid] FAILED %s: %s\n", r.id.c_str(), r.error.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
