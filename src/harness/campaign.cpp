#include "harness/campaign.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "attack/adaptive_attack.hpp"
#include "attack/random_attack.hpp"
#include "attack/tbfa.hpp"
#include "core/priority_profiler.hpp"
#include "defense/software_defenses.hpp"
#include "mapping/weight_mapping.hpp"
#include "nn/gemm.hpp"
#include "nn/thread_pool.hpp"
#include "sys/env.hpp"
#include "sys/json.hpp"
#include "system/protected_system.hpp"

namespace dnnd::harness {

namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

std::string flips_or_more(usize flips, bool reached_stop) {
  if (reached_stop) return std::to_string(flips);
  std::string s = ">";
  s += std::to_string(flips);
  return s;
}

void run_scenario_impl(const Scenario& sc, ArtifactCache& cache, ScenarioResult& r) {
  const u64 seed = scenario_seed(sc);
  const nn::SplitDataset& data = cache.dataset(sc.dataset);
  const double stop_acc =
      sc.stop_accuracy > 0.0 ? sc.stop_accuracy : 1.1 / data.spec.num_classes;
  auto model = cache.trained_model(sc.dataset, sc.train);
  auto [ax, ay] = data.test.head(sc.attack_batch);
  auto [ex, ey] = data.test.head(sc.eval_batch);

  // ----- training-time software defense (before quantization) -----
  switch (sc.prep) {
    case SoftwarePrep::kNone:
      break;
    case SoftwarePrep::kBinaryFinetune:
      defense::software::binary_finetune(*model, data, sc.prep_epochs, sc.prep_lr,
                                         sc.prep_seed);
      break;
    case SoftwarePrep::kPiecewiseClustering:
      defense::software::piecewise_clustering_finetune(*model, data, sc.prep_lambda,
                                                       sc.prep_epochs, sc.prep_lr,
                                                       sc.prep_seed);
      break;
  }

  // One forward per evaluation point: loss and accuracy share the logits.
  auto eval_acc = [&] { return model->evaluate_batch(ex, ey).accuracy; };

  if (sc.attack == AttackKind::kBinaryBfa) {
    defense::software::BinaryWeightModel bm(*model);
    r.clean_accuracy = eval_acc();
    const auto res =
        defense::software::attack_binary(bm, ax, ay, sc.max_flips, stop_acc);
    r.post_accuracy = eval_acc();
    r.flips = flips_or_more(res.steps.size(), res.reached_stop());
    return;
  }

  quant::QuantizedModel qm(*model);
  r.clean_accuracy = eval_acc();
  r.total_bits = qm.total_bits();

  switch (sc.attack) {
    case AttackKind::kBfa: {
      if (sc.reconstruction_guard) {
        // Weight reconstruction (Li et al. DAC'20): clamp after every flip.
        const defense::software::ReconstructionGuard guard(qm);
        attack::BfaConfig bcfg = {};
        bcfg.stop_accuracy = stop_acc;
        attack::ProgressiveBitSearch bfa(qm, ax, ay, bcfg);
        usize flips = 0;
        double acc = r.clean_accuracy;
        while (flips < sc.max_flips && acc > stop_acc) {
          if (!bfa.step({}).has_value()) break;
          ++flips;
          guard.apply(qm);
          acc = eval_acc();
        }
        r.post_accuracy = acc;
        r.flips = flips_or_more(flips, acc <= stop_acc);
      } else if (sc.record_trace) {
        // Fig. 1b-style curve: accuracy after every committed flip, stopping
        // at the random-guess level on the eval batch.
        attack::BfaConfig bcfg = {};
        bcfg.max_flips = sc.max_flips;
        attack::ProgressiveBitSearch bfa(qm, ax, ay, bcfg);
        r.trace.push_back(r.clean_accuracy);
        for (usize i = 0; i < sc.max_flips; ++i) {
          if (!bfa.step({}).has_value()) break;
          r.trace.push_back(eval_acc());
          if (r.trace.back() <= stop_acc) break;
        }
        r.post_accuracy = r.trace.back();
        // Same ">N" not-reached marker as the non-trace branch: a budget- or
        // candidate-exhausted attack that never hit stop accuracy must not
        // report a bare count -- dnnd_diff treats the two spellings as
        // different outcomes.
        r.flips = flips_or_more(r.trace.size() - 1, r.trace.back() <= stop_acc);
      } else {
        attack::BfaConfig bcfg = {};
        bcfg.max_flips = sc.max_flips;
        bcfg.stop_accuracy = stop_acc;
        attack::ProgressiveBitSearch bfa(qm, ax, ay, bcfg);
        const auto res = bfa.run();
        r.post_accuracy = eval_acc();
        r.flips = flips_or_more(res.steps.size(), res.reached_stop());
      }
      return;
    }

    case AttackKind::kRandom: {
      attack::RandomBitAttack rnd(qm, sys::Rng(seed));
      const auto res = rnd.run(sc.max_flips, ex, ey, sc.measure_every);
      r.trace = res.accuracy_trace;
      r.post_accuracy = r.trace.empty() ? r.clean_accuracy : r.trace.back();
      r.flips = std::to_string(res.flips.size());
      return;
    }

    case AttackKind::kAdaptive: {
      // Fig. 1b's full-coverage DNN-Defender deployment secures every bit
      // of every weight row.
      quant::BitSkipSet secured;
      if (sc.secure_all_weight_rows) {
        const mapping::WeightMapping map(qm, sc.dram);
        r.secured_rows = map.weight_rows().size();
        secured = map.bits_in_rows(map.weight_rows());
      }
      attack::AdaptiveAttackConfig acfg = {};
      acfg.max_additional_flips = sc.max_flips;
      acfg.measure_every = sc.measure_every;
      attack::AdaptiveWhiteBoxAttack atk(qm, ax, ay, ex, ey, acfg);
      const auto res = atk.run(secured);
      r.trace = res.accuracy_trace;
      r.secured_bits = secured.size();
      r.post_accuracy = r.trace.empty() ? r.clean_accuracy : r.trace.back();
      r.flips = std::to_string(res.landed_flips.size());
      return;
    }

    case AttackKind::kDramWhiteBox: {
      system::ProtectedSystemConfig scfg;
      scfg.dram = sc.dram;
      scfg.seed = seed;
      system::ProtectedSystem psys(qm, scfg);
      if (sc.use_dnn_defender) {
        core::PriorityProfiler profiler(qm, ax, ay);
        psys.install_dnn_defender(profiler.profile_blocked_attacker(sc.profile_bits));
        r.secured_bits = psys.secured_bits().size();
      } else if (sc.mitigation) {
        psys.install_mitigation(sc.mitigation(psys.device(), psys.remapper()));
      }
      // clean_accuracy was measured right after quantization; neither the
      // DRAM upload nor a defense install changes the weights.
      const auto res =
          psys.run_white_box_attack(ax, ay, ex, ey, sc.hw_attempts, stop_acc);
      r.attempts = res.attempts;
      r.landed = res.landed;
      r.blocked = res.blocked;
      r.post_accuracy = res.final_accuracy;
      r.flips =
          std::to_string(res.attempts) + " (" + std::to_string(res.landed) + " landed)";
      return;
    }

    case AttackKind::kVwaLimited: {
      // A limited-bit attacker with no bits is a configuration error, not an
      // empty result.
      if (sc.vwa_budget == 0) {
        throw std::invalid_argument("vwa-limited: flip_budget must be nonzero");
      }
      // The untargeted objective without its fallback: a step with no
      // improving probe ends the attack instead of spending budget.
      attack::UntargetedCeObjective objective(/*allow_fallback=*/false);
      attack::ProbeEngine engine(qm, ax, ay, objective);
      const auto res = engine.run(sc.vwa_budget, [stop_acc](const attack::ProbeMeasurement& m) {
        return m.accuracy <= stop_acc;
      });
      r.post_accuracy = eval_acc();
      // The three outcomes get three flips spellings -- all parseable by
      // leading_flip_count, all distinct under the zero-tolerance gate:
      //   "4"          stop accuracy reached in 4 flips,
      //   "4 (budget)" the whole 4-flip budget spent without reaching stop
      //                (the nominal limited-bit result, NOT a failure),
      //   ">2"         candidates dried up after 2 flips, budget unspent.
      switch (res.outcome) {
        case attack::SearchOutcome::kReachedStop:
          r.flips = std::to_string(res.steps.size());
          break;
        case attack::SearchOutcome::kBudgetExhausted:
          r.flips = std::to_string(res.steps.size()) + " (budget)";
          break;
        case attack::SearchOutcome::kCandidatesExhausted:
          r.flips = ">" + std::to_string(res.steps.size());
          break;
      }
      return;
    }

    case AttackKind::kTbfaNTo1:
    case AttackKind::kTbfa1To1:
    case AttackKind::kTbfaStealthy: {
      attack::TbfaConfig tcfg = {};
      tcfg.variant = sc.attack == AttackKind::kTbfaNTo1   ? attack::TbfaVariant::kNTo1
                     : sc.attack == AttackKind::kTbfa1To1 ? attack::TbfaVariant::k1To1
                                                          : attack::TbfaVariant::kStealthy;
      tcfg.source = sc.tbfa_source;
      tcfg.target = sc.tbfa_target;
      tcfg.stealth_tolerance = sc.tbfa_stealth_tol;
      tcfg.max_flips = sc.max_flips;
      attack::TbfaAttack atk(qm, ax, ay, tcfg);
      const auto res = atk.run();
      // One forward over the eval batch yields all three post-attack numbers;
      // pce.accuracy() counts exactly like evaluate_batch, so post_accuracy
      // stays comparable with every other attack kind's.
      nn::PerClassEval pce;
      model->evaluate_batch_per_class(ex, ey, atk.source_class(), tcfg.target, pce);
      r.post_accuracy = pce.accuracy();
      r.attack_success_rate = pce.attack_success_rate();
      r.post_attack_other_acc = pce.other_accuracy();
      r.flips = flips_or_more(res.steps.size(), res.reached_stop());
      return;
    }

    case AttackKind::kBinaryBfa:
      break;  // handled above
  }
  throw std::logic_error("unhandled attack kind");
}

}  // namespace

ScenarioResult CampaignRunner::run_scenario(const Scenario& sc, ArtifactCache& cache) {
  ScenarioResult r;
  r.id = sc.id;
  r.label = sc.label.empty() ? sc.id : sc.label;
  r.model = sc.train.arch +
            (sc.train.width_mult > 1 ? " (x" + std::to_string(sc.train.width_mult) + ")" : "");
  r.defense = sc.defense;
  r.attack = to_string(sc.attack);
  try {
    run_scenario_impl(sc, cache, r);
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

CampaignRunner::CampaignRunner(CampaignConfig cfg) : cfg_(cfg) {}

CampaignResult CampaignRunner::run(const std::vector<Scenario>& scenarios) {
  CampaignResult out;
  out.results.resize(scenarios.size());
  const usize budget = cfg_.threads != 0
                           ? cfg_.threads
                           : std::max(1u, std::thread::hardware_concurrency());
  const usize threads = std::max<usize>(1, std::min(budget, scenarios.size()));
  out.threads_used = threads;

  // Split the thread budget between the two parallelism levels: scenario
  // workers first (coarse, embarrassingly parallel), and whatever is left
  // over per worker goes to each scenario's GEMM team -- so a single big
  // scenario still uses the whole budget through the inference engine.
  // Results are byte-identical for every split (both levels are
  // bit-transparent by construction); the guard restores the caller's
  // setting on every exit path, including exceptions (e.g. std::thread
  // construction failing below).
  const nn::gemm::ThreadsGuard gemm_guard;
  const usize gemm_team = std::max<usize>(1, budget / threads);
  nn::gemm::set_threads(gemm_team);
  if (gemm_team > 1) {
    // A region only spawns its own team's workers; provision for all
    // scenario workers' regions running at once.
    nn::ThreadPool::instance().reserve_workers(threads * (gemm_team - 1));
  }

  const double t0 = now_seconds();
  std::atomic<usize> next{0};
  // First on_result failure, if any: captured here (never thrown across a
  // worker thread) and rethrown after the join so the sweep fails loudly.
  std::mutex hook_mu;
  std::string hook_error;
  auto worker = [&] {
    while (true) {
      const usize i = next.fetch_add(1);
      if (i >= scenarios.size()) return;
      const double s0 = now_seconds();
      ScenarioResult res = run_scenario(scenarios[i], cache_);
      res.wall_seconds = now_seconds() - s0;
      if (cfg_.verbose) {
        std::fprintf(stderr, "[campaign] %-32s %s (%.1fs)\n", res.id.c_str(),
                     res.ok ? "ok" : res.error.c_str(), res.wall_seconds);
      }
      if (cfg_.on_result) {
        try {
          cfg_.on_result(res);
        } catch (const std::exception& e) {
          const std::lock_guard<std::mutex> lock(hook_mu);
          if (hook_error.empty()) {
            hook_error = "on_result hook failed for " + res.id + ": " + e.what();
          }
        }
      }
      out.results[i] = std::move(res);
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (usize t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  out.total_seconds = now_seconds() - t0;
  if (!hook_error.empty()) throw std::runtime_error(hook_error);
  return out;
}

sys::Table CampaignResult::table() const {
  sys::Table t({"scenario", "model", "defense", "attack", "clean acc (%)", "post acc (%)",
                "asr (%)", "other acc (%)", "flips"});
  for (const auto& r : results) {
    // ASR / other-class accuracy only mean something for the targeted family;
    // a dash keeps the untargeted rows from reading as 0% success.
    const bool targeted = r.attack.rfind("tbfa", 0) == 0;
    t.add_row({r.id, r.model, r.defense, r.attack, sys::fmt(100.0 * r.clean_accuracy, 2),
               sys::fmt(100.0 * r.post_accuracy, 2),
               targeted ? sys::fmt(100.0 * r.attack_success_rate, 2) : "-",
               targeted ? sys::fmt(100.0 * r.post_attack_other_acc, 2) : "-",
               r.ok ? r.flips : "ERROR: " + r.error});
  }
  return t;
}

void scenario_result_to_json(sys::JsonWriter& w, const ScenarioResult& r,
                             bool include_timing) {
  w.begin_object();
  w.key("id").value(r.id);
  w.key("label").value(r.label);
  w.key("model").value(r.model);
  w.key("defense").value(r.defense);
  w.key("attack").value(r.attack);
  w.key("ok").value(r.ok);
  if (!r.ok) w.key("error").value(r.error);
  w.key("clean_accuracy").value(r.clean_accuracy);
  w.key("post_accuracy").value(r.post_accuracy);
  w.key("attack_success_rate").value(r.attack_success_rate);
  w.key("post_attack_other_acc").value(r.post_attack_other_acc);
  w.key("flips").value(r.flips);
  w.key("attempts").value(r.attempts);
  w.key("landed").value(r.landed);
  w.key("blocked").value(r.blocked);
  w.key("secured_bits").value(r.secured_bits);
  w.key("secured_rows").value(r.secured_rows);
  w.key("total_bits").value(r.total_bits);
  w.key("trace").begin_array();
  for (const double v : r.trace) w.value(v);
  w.end_array();
  if (include_timing) w.key("wall_seconds").value(r.wall_seconds);
  w.end_object();
}

std::string CampaignResult::to_json(bool include_timing) const {
  sys::JsonWriter w;
  w.begin_object();
  if (include_timing) {
    w.key("threads").value(threads_used);
    w.key("total_seconds").value(total_seconds);
  }
  w.key("scenarios").begin_array();
  for (const auto& r : results) scenario_result_to_json(w, r, include_timing);
  w.end_array();
  w.end_object();
  return w.str();
}

const ScenarioResult& CampaignResult::by_id(std::string_view id) const {
  for (const auto& r : results) {
    if (r.id == id) return r;
  }
  throw std::out_of_range("no scenario result with id: " + std::string(id));
}

usize env_threads() { return sys::env_usize("DNND_THREADS", 0); }

namespace {

/// at() with a loader-specific error: names the missing field AND where it
/// was expected, so a truncated baseline fails loudly instead of loading as
/// a plausible-looking campaign.
const sys::JsonValue& require_field(const sys::JsonValue& obj, std::string_view key,
                                    const std::string& where) {
  if (!obj.is_object() || !obj.contains(key)) {
    throw sys::JsonParseError("campaign_from_json: missing required field \"" +
                              std::string(key) + "\" in " + where);
  }
  return obj.at(key);
}

}  // namespace

ScenarioResult scenario_result_from_json(const sys::JsonValue& s, bool expect_timing,
                                         const std::string& where) {
  ScenarioResult r;
  r.id = require_field(s, "id", where).as_string();
  r.label = require_field(s, "label", where).as_string();
  r.model = require_field(s, "model", where).as_string();
  r.defense = require_field(s, "defense", where).as_string();
  r.attack = require_field(s, "attack", where).as_string();
  r.ok = require_field(s, "ok", where).as_bool();
  // to_json writes "error" exactly when the scenario failed.
  if (!r.ok) r.error = require_field(s, "error", where).as_string();
  r.clean_accuracy = require_field(s, "clean_accuracy", where).as_double();
  r.post_accuracy = require_field(s, "post_accuracy", where).as_double();
  r.attack_success_rate = require_field(s, "attack_success_rate", where).as_double();
  r.post_attack_other_acc = require_field(s, "post_attack_other_acc", where).as_double();
  r.flips = require_field(s, "flips", where).as_string();
  r.attempts = static_cast<usize>(require_field(s, "attempts", where).as_u64());
  r.landed = static_cast<usize>(require_field(s, "landed", where).as_u64());
  r.blocked = static_cast<usize>(require_field(s, "blocked", where).as_u64());
  r.secured_bits = static_cast<usize>(require_field(s, "secured_bits", where).as_u64());
  r.secured_rows = static_cast<usize>(require_field(s, "secured_rows", where).as_u64());
  r.total_bits = require_field(s, "total_bits", where).as_u64();
  for (const sys::JsonValue& v : require_field(s, "trace", where).items()) {
    r.trace.push_back(v.as_double());
  }
  if (expect_timing) r.wall_seconds = require_field(s, "wall_seconds", where).as_double();
  return r;
}

CampaignResult campaign_from_json(std::string_view json) {
  const sys::JsonValue doc = sys::parse_json(json);
  // to_json writes exactly these top-level keys. A document with any other
  // key was not written by it, so it fails loudly instead of loading as a
  // plain campaign with the key ignored.
  if (doc.is_object()) {
    for (const auto& [key, value] : doc.members()) {
      if (key != "threads" && key != "total_seconds" && key != "scenarios") {
        throw sys::JsonParseError("campaign_from_json: unknown top-level field \"" + key +
                                  "\" in document");
      }
    }
  }

  CampaignResult out;
  // to_json writes the timing fields as a unit (include_timing on or off);
  // half-present timing means a truncated or hand-edited document, which
  // must not load as a valid campaign with defaulted numbers.
  const bool timed = doc.contains("threads") || doc.contains("total_seconds");
  if (timed) {
    out.threads_used = static_cast<usize>(require_field(doc, "threads", "document").as_u64());
    out.total_seconds = require_field(doc, "total_seconds", "document").as_double();
  }

  for (const sys::JsonValue& s : require_field(doc, "scenarios", "document").items()) {
    const std::string where =
        "scenario " + (s.is_object() && s.contains("id") ? s.at("id").as_string()
                                                         : std::to_string(out.results.size()));
    out.results.push_back(scenario_result_from_json(s, timed, where));
  }
  return out;
}

}  // namespace dnnd::harness
