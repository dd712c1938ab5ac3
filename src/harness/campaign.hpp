// CampaignRunner: executes a grid of Scenarios across a std::thread pool and
// collects structured, deterministic results.
//
// Determinism contract: results depend only on the scenario list (ids,
// budgets, configs), never on the thread count or completion order. Workers
// claim scenario indices from an atomic counter and write into the matching
// result slot; every RNG is seeded from scenario_seed(). Wall-clock fields
// are the only nondeterministic outputs and are excluded from table()/
// to_json() unless explicitly requested.
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "harness/artifact_cache.hpp"
#include "harness/scenario.hpp"
#include "sys/json.hpp"
#include "sys/table.hpp"

namespace dnnd::harness {

struct ScenarioResult;

struct CampaignConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  usize threads = 0;
  /// Print one line per finished scenario to stderr.
  bool verbose = false;
  /// Invoked once per finished scenario, from the worker thread that ran it
  /// (concurrent invocations for distinct scenarios; never twice for the
  /// same one). The shard protocol checkpoints each cell here. A throwing
  /// hook does not stop the sweep, but CampaignRunner::run rethrows the
  /// first hook failure after all workers join -- a checkpoint that cannot
  /// be persisted must fail the run loudly, not complete it silently.
  std::function<void(const ScenarioResult&)> on_result = {};
};

/// Structured outcome of one scenario.
struct ScenarioResult {
  std::string id;
  std::string label;
  std::string model;
  std::string defense;
  std::string attack;

  bool ok = false;
  std::string error;  ///< set when ok == false; scenario failures never abort a campaign

  double clean_accuracy = 0.0;
  double post_accuracy = 0.0;
  /// T-BFA attacks: fraction of eval-batch source rows predicted as the
  /// target class after the attack. 0 for every other attack kind.
  double attack_success_rate = 0.0;
  /// T-BFA attacks: post-attack eval-batch accuracy outside the source rows
  /// (the stealth metric). 0 for every other attack kind.
  double post_attack_other_acc = 0.0;
  std::string flips;  ///< paper-style flip count (">80", "30 (0 landed)", ...)

  // kDramWhiteBox details
  usize attempts = 0;
  usize landed = 0;
  usize blocked = 0;

  usize secured_bits = 0;        ///< size of the secured set (kAdaptive / defender)
  usize secured_rows = 0;        ///< weight rows covered by the secured set
  u64 total_bits = 0;            ///< attackable weight bits of the quantized model
  std::vector<double> trace;     ///< accuracy curve (record_trace / trace attacks)

  double wall_seconds = 0.0;     ///< nondeterministic; excluded from table/JSON
};

struct CampaignResult {
  std::vector<ScenarioResult> results;  ///< same order as the input scenarios
  usize threads_used = 1;
  double total_seconds = 0.0;

  /// Generic campaign table (deterministic).
  [[nodiscard]] sys::Table table() const;

  /// Deterministic JSON export; timing fields only with include_timing.
  [[nodiscard]] std::string to_json(bool include_timing = false) const;

  /// Result lookup by scenario id; throws std::out_of_range when absent.
  [[nodiscard]] const ScenarioResult& by_id(std::string_view id) const;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig cfg = {});

  /// Runs all scenarios (parallel when cfg.threads > 1). Exceptions inside a
  /// scenario are captured into its result (ok = false).
  CampaignResult run(const std::vector<Scenario>& scenarios);

  /// Executes one scenario against a cache. Deterministic given (sc, cache
  /// keys); exposed for tests and custom drivers.
  static ScenarioResult run_scenario(const Scenario& sc, ArtifactCache& cache);

  [[nodiscard]] ArtifactCache& cache() { return cache_; }

 private:
  CampaignConfig cfg_;
  ArtifactCache cache_;
};

/// Worker-thread count from the DNND_THREADS env var (0/unset = hardware
/// concurrency) -- the knob the bench binaries expose. Parsed through
/// sys::env_usize, the same validated parser the GEMM team size uses, so a
/// malformed value warns and falls back instead of silently diverging from
/// the engine's reading of the identical variable.
usize env_threads();

/// Serializes one ScenarioResult as the scenario object CampaignResult::
/// to_json() emits -- the single source of the scenario-object shape, shared
/// by whole-campaign documents and the shard protocol's per-cell checkpoint
/// files, so a merged sharded run reassembles to the exact single-process
/// bytes.
void scenario_result_to_json(sys::JsonWriter& w, const ScenarioResult& r,
                             bool include_timing = false);

/// Parses one scenario object (the inverse of scenario_result_to_json) with
/// campaign_from_json's strictness: every field is required, `error` exactly
/// when ok is false, `wall_seconds` exactly when `expect_timing`. `where`
/// names the source in error messages. Throws sys::JsonParseError.
ScenarioResult scenario_result_from_json(const sys::JsonValue& s, bool expect_timing,
                                         const std::string& where);

/// Parses a campaign document produced by CampaignResult::to_json() (with or
/// without timing fields) back into a CampaignResult, so persisted runs can
/// be reloaded and diffed. Round-trips byte-exactly when re-serialized with
/// the matching flag: campaign_from_json(r.to_json()).to_json() == r.to_json()
/// and campaign_from_json(r.to_json(true)).to_json(true) == r.to_json(true).
/// Strict: every field to_json writes is required (the timing fields as a
/// unit -- `threads`/`total_seconds`/per-scenario `wall_seconds` must be all
/// present or all absent, and `error` is required exactly when ok is false),
/// and a top-level key it never writes is rejected, so a truncated or
/// hand-edited baseline throws instead of loading as a plausible zero-flip
/// campaign. Throws sys::JsonParseError on malformed or wrong-shape input.
CampaignResult campaign_from_json(std::string_view json);

}  // namespace dnnd::harness
