// bench_serving: inference serving under live RowHammer attack and defense.
//
// An open-loop Poisson request stream (seeded, reproducible) is planned in
// virtual time through a bounded admission queue and a batch coalescer; the
// server thread then paces each planned batch by its last member's scheduled
// arrival in front of the GEMM engine. The installed mitigation's tick()
// interleaves on a virtual-time schedule, and the same server thread
// optionally carries a white-box BFA flip through the DRAM substrate at each
// planned attack slot, before that slot's batch. Three regimes run on fresh
// systems over the same arrival schedule:
//
//   defense-off          undefended device, no attack (latency floor)
//   defense-on           DNN-Defender installed, no attack (defense cost)
//   defense-on+attack    DNN-Defender vs the live attacker (the paper's case)
//
// Wall-clock latencies (p50/p99/p999, achieved rps) are real measurements
// and excluded from every byte gate; the arrival schedule, batch
// composition, drop accounting, tick count, and attack decision stream are
// deterministic in DNND_SERVE_SEED and pinned across runs and DNND_THREADS
// by each regime's digest (tests/test_serving.cpp and the CI smoke leg).
//
// Knobs: DNND_SERVE_RATE, DNND_SERVE_DURATION_MS, DNND_SERVE_BATCH_CAP,
// DNND_SERVE_MAX_WAIT_US, DNND_SERVE_QUEUE, DNND_SERVE_SEED,
// DNND_SERVE_TICK_US, DNND_SERVE_ATTACK_EVERY, DNND_SERVE_RESERVOIR, plus
// DNND_BENCH_MODEL / DNND_THREADS / DNND_SIMD from the engine. `--tiny`
// swaps in the 4-class test set and the test MLP for a ~2s CI smoke run.
//
// JSON artifact: the ServingReport document, persisted through the shared
// DNND_JSON_OUT sink protocol (stem "serving") and always printed to stdout.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "core/priority_profiler.hpp"
#include "harness/artifact_cache.hpp"
#include "harness/sink.hpp"
#include "nn/gemm.hpp"
#include "nn/simd.hpp"
#include "quant/quantizer.hpp"
#include "serving/report.hpp"
#include "sys/table.hpp"
#include "system/protected_system.hpp"

using namespace dnnd;

namespace {

struct RegimeSetup {
  bool defended = false;
  bool attacked = false;
};

/// Runs one regime on a FRESH quantized model + protected system so the
/// regimes are independent measurements over the identical arrival schedule.
serving::RegimeStats run_regime(const std::string& name, const RegimeSetup& setup,
                                harness::ArtifactCache& cache, harness::DatasetKind dataset,
                                const harness::TrainSpec& train, const serving::ServeConfig& cfg,
                                const nn::Dataset& pool, const nn::Tensor& eval_x,
                                const std::vector<u32>& eval_y, const nn::Tensor& attack_x,
                                const std::vector<u32>& attack_y) {
  auto model = cache.trained_model(dataset, train);
  quant::QuantizedModel qm(*model);
  system::ProtectedSystemConfig scfg;
  scfg.seed = cfg.seed;
  system::ProtectedSystem psys(qm, scfg);
  if (setup.defended) {
    core::PriorityProfiler profiler(qm, attack_x, attack_y);
    psys.install_dnn_defender(profiler.profile_blocked_attacker(60));
  }
  return serving::serve_regime(name, psys, pool, eval_x, eval_y, attack_x, attack_y, cfg,
                               setup.attacked);
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else {
      std::fprintf(stderr, "usage: %s [--tiny]\n", argv[0]);
      return 2;
    }
  }

  const char* model_env = std::getenv("DNND_BENCH_MODEL");
  const std::string arch =
      tiny ? "mlp" : (model_env != nullptr && model_env[0] != '\0' ? model_env : "resnet20");
  const harness::DatasetKind dataset =
      tiny ? harness::DatasetKind::kTinyEasy : harness::DatasetKind::kCifar10Like;
  const harness::TrainSpec train{.arch = arch, .width_mult = 1,
                                 .epochs = tiny ? usize{5} : usize{6},
                                 .seed = tiny ? u64{7} : u64{1}};
  const serving::ServeConfig cfg = serving::serve_config_from_env();

  bench::banner("Serving under attack -- open-loop traffic, coalescing, live defense",
                "engine traffic bench (BENCH trajectory; not a paper figure)");
  std::printf("[load] %zu rps offered for %zu ms, batch cap %zu, max wait %zu us, "
              "queue %zu, seed %llu\n",
              cfg.rate_rps, cfg.duration_ms, cfg.batch_cap, cfg.max_wait_us, cfg.queue_depth,
              static_cast<unsigned long long>(cfg.seed));
  std::printf("[threads] GEMM team size: %zu\n", nn::gemm::threads());

  harness::ArtifactCache cache;
  const nn::SplitDataset& data = cache.dataset(dataset);
  auto [ex, ey] = data.test.head(std::min<usize>(data.test.size(), 160));
  auto [ax, ay] = data.test.head(32);

  serving::ServingReport report;
  report.model = arch;
  report.threads = nn::gemm::threads();
  report.simd = nn::simd::isa_name(nn::simd::active_isa());
  report.config = cfg;

  const std::pair<std::string, RegimeSetup> regimes[] = {
      {"defense-off", {.defended = false, .attacked = false}},
      {"defense-on", {.defended = true, .attacked = false}},
      {"defense-on+attack", {.defended = true, .attacked = true}},
  };
  for (const auto& [name, setup] : regimes) {
    report.regimes.push_back(run_regime(name, setup, cache, dataset, train, cfg, data.test,
                                        ex, ey, ax, ay));
  }

  sys::Table table({"Regime", "req", "drop", "batches", "p50 us", "p99 us", "p99.9 us",
                    "ach. rps", "ticks", "atk L/B", "acc before", "acc after"});
  for (const serving::RegimeStats& r : report.regimes) {
    table.add_row({r.name, sys::fmt_count(r.requests), sys::fmt_count(r.dropped),
                   sys::fmt_count(r.batches), sys::fmt(static_cast<double>(r.p50_ns) / 1e3, 1),
                   sys::fmt(static_cast<double>(r.p99_ns) / 1e3, 1),
                   sys::fmt(static_cast<double>(r.p999_ns) / 1e3, 1),
                   sys::fmt(r.achieved_rps, 0), sys::fmt_count(r.ticks),
                   sys::fmt_count(r.attack_landed) + "/" + sys::fmt_count(r.attack_blocked),
                   sys::fmt(100.0 * r.accuracy_before, 2) + "%",
                   sys::fmt(100.0 * r.accuracy_after, 2) + "%"});
  }
  table.print();
  std::printf("\nDecision-stream digests (byte-gated; wall-clock fields are not):\n%s",
              serving::deterministic_projection(report).c_str());

  try {
    serving::validate_serving_report(report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serving: self-check failed: %s\n", e.what());
    return 1;
  }

  const std::string json = report.to_json();
  std::printf("%s\n", json.c_str());
  std::string destination;
  switch (harness::write_document_from_env(json, "serving", &destination)) {
    case harness::SinkWriteStatus::kWritten:
      std::printf("[sink] serving JSON -> %s\n", destination.c_str());
      break;
    case harness::SinkWriteStatus::kFailed:
      return 1;
    case harness::SinkWriteStatus::kNoSink:
      break;
  }
  return 0;
}
