// perfbench: measures one benchmark workload and writes the raw measurements
// (samples, scalars, spans and the facts the output checks need) as one JSON
// document. perfbench/run.py turns the document into metrics and checks it;
// the arithmetic lives there so it can be tested without a build.
//
//   perfbench --workload bfa-search|serve-attack --seed N
//             --seconds S --trace 0|1 --out FILE
//
// Workloads (why each exists: perfbench/NOTES.md):
//   bfa-search    repeated ProgressiveBitSearch runs (max 30 flips) on vgg11
//                 over whole passes of a fixed pool of 32-image attack
//                 batches, the seed choosing the first batch, for S seconds
//                 rounded up to a whole pass.
//   serve-attack  serving::serve_regime on vgg11 with DNN-Defender installed
//                 and the attacker live, open loop at 2000 rps for S seconds;
//                 afterwards a fresh system replays the serving plan serially,
//                 and the replay's decision digest must equal the threaded
//                 run's.
//
// Every workload sets up three times in a row, keeping the last victim, and
// run.py reports the median set-up. The peak-memory figure covers the timed
// region only: the high-water mark is reset after set-up.
//
// With --trace 1 the run records spans around the calls this file makes into
// each layer and runs the extra per-layer measurements. Spans are kept in
// memory and written at exit.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/bfa.hpp"
#include "attack/probe_engine.hpp"
#include "core/priority_profiler.hpp"
#include "defense/software_defenses.hpp"
#include "harness/artifact_cache.hpp"
#include "harness/registry.hpp"
#include "nn/gemm.hpp"
#include "nn/simd.hpp"
#include "quant/bit_gradient.hpp"
#include "quant/quantizer.hpp"
#include "serving/server.hpp"
#include "serving/serving.hpp"
#include "sys/json.hpp"
#include "sys/rng.hpp"
#include "system/protected_system.hpp"

using namespace dnnd;

namespace {

using steady = std::chrono::steady_clock;
const steady::time_point kEpoch = steady::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(steady::now() - kEpoch).count();
}

double seconds_since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Resets the process's resident-memory high-water mark (VmHWM) to its
/// current resident size, so peak_rss_mb() covers only what runs after.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  if (!f) throw std::runtime_error("cannot reset the peak-RSS mark (/proc/self/clear_refs)");
}

/// VmHWM from /proc/self/status, in MiB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      if (in >> kib) return kib / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

std::string hex64(u64 v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ----- measurement record ------------------------------------------------------

/// Everything a run measured: named sample lists, named scalars, facts for
/// the output checks, and spans. Used from the main thread only (the
/// threads serve_regime starts never touch it).
class Record {
 public:
  explicit Record(bool trace) : trace_(trace) {}

  [[nodiscard]] bool tracing() const { return trace_; }

  void sample(const std::string& name, double v) { samples_[name].push_back(v); }
  void scalar(const std::string& name, double v) { scalars_[name] = v; }
  void fact(const std::string& name, std::string v) { facts_[name] = std::move(v); }

  /// Opens a span under the innermost open span; returns its id, or -1 when
  /// not tracing.
  i64 open(const std::string& name) {
    if (!trace_) return -1;
    const i64 id = static_cast<i64>(spans_.size());
    spans_.push_back({name, now_us(), now_us(), current_});
    current_ = id;
    return id;
  }
  void close(i64 id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<usize>(id)];
    s.end_us = now_us();
    current_ = s.parent;
  }
  [[nodiscard]] std::string to_json() const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    i64 parent = -1;
  };

  bool trace_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> scalars_;
  std::map<std::string, std::string> facts_;
  std::vector<Span> spans_;
  i64 current_ = -1;  ///< innermost open span
};

std::string Record::to_json() const {
  sys::JsonWriter w;
  w.begin_object();
  w.key("samples").begin_object();
  for (const auto& [name, values] : samples_) {
    w.key(name).begin_array();
    for (const double v : values) w.value(v);
    w.end_array();
  }
  w.end_object();
  w.key("scalars").begin_object();
  for (const auto& [name, v] : scalars_) w.key(name).value(v);
  w.end_object();
  w.key("facts").begin_object();
  for (const auto& [name, v] : facts_) w.key(name).value(v);
  w.end_object();
  w.key("spans").begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("start_us").value(s.start_us);
    w.key("end_us").value(s.end_us);
    w.key("parent").value(s.parent);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

/// Scoped span that also records its duration as a sample, in units of
/// 1/`per_second` seconds (1e3 = ms, 1e6 = us, 1 = s), unless `sample` is
/// empty.
class Timed {
 public:
  Timed(Record& rec, const std::string& span, std::string sample = {}, double per_second = 1e3)
      : rec_(rec),
        sample_(std::move(sample)),
        per_second_(per_second),
        id_(rec.open(span)),
        t0_(steady::now()) {}
  ~Timed() {
    const double s = seconds_since(t0_);
    rec_.close(id_);
    if (!sample_.empty()) rec_.sample(sample_, s * per_second_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Record& rec_;
  std::string sample_;
  double per_second_;
  i64 id_;
  steady::time_point t0_;
};

// ----- traced search --------------------------------------------------------------

/// The classic BFA objective, wrapped so the traced run can time prepare()
/// (forward + backward on the attack batch) and count probe measurements.
class TimedObjective final : public attack::Objective {
 public:
  explicit TimedObjective(Record& rec) : rec_(rec) {}

  [[nodiscard]] attack::SearchDirection direction() const override { return inner_.direction(); }
  [[nodiscard]] bool allow_estimate_fallback() const override {
    return inner_.allow_estimate_fallback();
  }
  double prepare(nn::Model& model, const nn::Tensor& x, const std::vector<u32>& y) override {
    const steady::time_point t0 = steady::now();
    double base = 0.0;
    {
      const Timed t(rec_, "attack.prepare", "attack.prepare_ms");
      base = inner_.prepare(model, x, y);
    }
    last_prepare_s_ = seconds_since(t0);
    return base;
  }
  void measure(const nn::Tensor& logits, const std::vector<u32>& y,
               attack::ProbeMeasurement& out) override {
    ++measures_;
    inner_.measure(logits, y, out);
  }

  [[nodiscard]] usize measures() const { return measures_; }
  [[nodiscard]] double last_prepare_s() const { return last_prepare_s_; }

 private:
  Record& rec_;
  attack::UntargetedCeObjective inner_{/*allow_fallback=*/true};
  usize measures_ = 0;
  double last_prepare_s_ = 0.0;
};

/// ProbeEngine driven like ProgressiveBitSearch (same engine settings and
/// objective), with each step timed: samples "attack.step_ms" and
/// "attack.probe_ms" (the step minus its prepare) per committed step, plus
/// step/fallback/measure counts for the per-step ratios.
class TracedSearch {
 public:
  TracedSearch(Record& rec, quant::QuantizedModel& qm, const nn::Tensor& x,
               const std::vector<u32>& y)
      : rec_(rec), objective_(rec), engine_(qm, x, y, objective_, engine_config()) {}

  std::optional<attack::EngineStep> step(const quant::BitSkipSet& skip) {
    const steady::time_point t0 = steady::now();
    std::optional<attack::EngineStep> es;
    {
      const Timed t(rec_, "attack.step");
      es = engine_.step(skip);
    }
    if (es.has_value()) {
      const double step_s = seconds_since(t0);
      rec_.sample("attack.step_ms", step_s * 1e3);
      rec_.sample("attack.probe_ms", (step_s - objective_.last_prepare_s()) * 1e3);
      ++steps_;
      if (es->fallback) ++fallbacks_;
    }
    return es;
  }

  /// ProgressiveBitSearch::stop_threshold() for the default config.
  [[nodiscard]] double stop_threshold() const {
    return 1.05 / static_cast<double>(engine_.num_classes());
  }

  /// Adds this search's counts to the run totals.
  void tally() const {
    rec_.sample("attack.steps", static_cast<double>(steps_));
    rec_.sample("attack.measures", static_cast<double>(objective_.measures()));
    rec_.sample("attack.fallbacks", static_cast<double>(fallbacks_));
  }

 private:
  static attack::ProbeEngineConfig engine_config() {
    const attack::BfaConfig d{};
    return {d.candidates_per_layer, d.layers_evaluated};
  }

  Record& rec_;
  TimedObjective objective_;
  attack::ProbeEngine engine_;
  usize steps_ = 0;
  usize fallbacks_ = 0;
};

// ----- the vgg11 victim of bfa-search and serve-attack ----------------------------

const harness::TrainSpec kVgg11{.arch = "vgg11", .width_mult = 1, .epochs = 6, .seed = 1};
constexpr harness::DatasetKind kCifar = harness::DatasetKind::kCifar10Like;

struct Victim {
  harness::ArtifactCache cache;
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<quant::QuantizedModel> qm;
  std::unique_ptr<system::ProtectedSystem> psys;  ///< serve-attack only

  [[nodiscard]] const nn::Dataset& test() { return cache.dataset(kCifar).test; }
};

// ----- per-layer probes ------------------------------------------------------------

/// Direct timings of the nn and quant calls the BFA search leans on, on the
/// victim's model and an attack batch. Leaves the weights unchanged.
void probe_layers(Record& rec, Victim& v, const nn::Tensor& ax, const std::vector<u32>& ay) {
  quant::QuantizedModel& qm = *v.qm;
  nn::Model& model = qm.model();
  for (int i = 0; i < 30; ++i) {
    const Timed t(rec, "nn.forward_cached", "nn.forward_ms");
    model.forward_cached(ax, /*train=*/false);
  }
  nn::LossResult ce;
  for (int i = 0; i < 30; ++i) {
    nn::softmax_cross_entropy_into(model.forward_cached(ax, false), ay, ce);
    model.zero_grad();
    const Timed t(rec, "nn.backward", "nn.backward_ms");
    model.backward(ce.dlogits);
  }
  // forward_from(k) for every top-level layer k over a warm cache; run.py
  // averages the per-k medians.
  model.forward_cached(ax, false);
  const usize depth = model.net().layer_count();
  for (usize k = 0; k < depth; ++k) {
    for (int i = 0; i < 9; ++i) {
      const Timed t(rec, "nn.forward_from", "nn.forward_from_us.k" + std::to_string(k), 1e6);
      model.forward_from(k, false);
    }
  }
  // The intra-layer ranking alone, over the clean model's gradients.
  model.zero_grad();
  model.loss_and_grad(ax, ay);
  const quant::BitSkipSet none;
  const usize k = attack::BfaConfig{}.candidates_per_layer;
  for (int i = 0; i < 30; ++i) {
    const Timed t(rec, "quant.top_k_flips", "quant.top_k_ms");
    for (usize l = 0; l < qm.num_layers(); ++l) quant::top_k_flips(qm.layer(l), l, k, none);
  }
  for (usize i = 0; i < 300; ++i) {
    const usize l = i % qm.num_layers();
    const quant::BitLocation loc{l, (i * 7919) % qm.layer(l).size(), static_cast<u32>(i % 8)};
    const Timed t(rec, "quant.flip", "quant.flip_us", 1e6);
    qm.flip(loc);
    qm.flip(loc);  // revert
  }
  for (int i = 0; i < 9; ++i) {
    auto m = v.cache.trained_model(kCifar, kVgg11);
    std::optional<quant::QuantizedModel> q;
    const Timed t(rec, "quant.quantize", "quant.quantize_ms");
    q.emplace(*m);  // timed: the constructor only, not the destructor
  }
}

/// The table-3 row `name` ("baseline", "binary", ...) of `grid`.
const harness::Scenario& table3_row(const std::vector<harness::Scenario>& grid,
                                    const std::string& name) {
  for (const auto& sc : grid) {
    if (sc.id == "table3/" + name) return sc;
  }
  throw std::logic_error("table3 grid has no row " + name);
}

/// The defense::software calls of the table-3 binary and piecewise rows
/// (their prep settings), on fresh copies of the victim's trained model.
void probe_software_defenses(Record& rec, Victim& v, const nn::Tensor& ax,
                             const std::vector<u32>& ay) {
  const auto grid = harness::table3_scenarios(/*small=*/true);
  const nn::SplitDataset& data = v.cache.dataset(kCifar);
  {
    const harness::Scenario& bin = table3_row(grid, "binary");
    auto m = v.cache.trained_model(kCifar, kVgg11);
    {
      const Timed t(rec, "defense.binary_finetune", "defense.binary_finetune_s", 1.0);
      defense::software::binary_finetune(*m, data, bin.prep_epochs, bin.prep_lr, bin.prep_seed);
    }
    defense::software::BinaryWeightModel bm(*m);
    const Timed t(rec, "defense.attack_binary", "defense.attack_binary_s", 1.0);
    defense::software::attack_binary(bm, ax, ay, bin.max_flips,
                                     1.1 / static_cast<double>(data.spec.num_classes));
  }
  const harness::Scenario& pw = table3_row(grid, "piecewise");
  auto m = v.cache.trained_model(kCifar, kVgg11);
  const Timed t(rec, "defense.piecewise_finetune", "defense.piecewise_finetune_s", 1.0);
  defense::software::piecewise_clustering_finetune(*m, data, pw.prep_lambda, pw.prep_epochs,
                                                   pw.prep_lr, pw.prep_seed);
}

/// Trains (through the artifact cache) and quantizes vgg11.
void build_victim(Record& rec, Victim& v) {
  v.cache.dataset(kCifar);
  {
    const Timed t(rec, "harness.train.vgg11", "harness.train_s.vgg11", 1.0);
    v.model = v.cache.trained_model(kCifar, kVgg11);
  }
  v.qm = std::make_unique<quant::QuantizedModel>(*v.model);
}

/// Builds a victim with `build` kSetups times in a row, recording each
/// duration as a "setup_s" sample, and returns the last one; each earlier
/// victim is freed before the next is built. Then resets the peak-RSS mark,
/// so peak_rss_mb() covers the timed region that follows.
constexpr int kSetups = 3;
template <typename Build>
std::unique_ptr<Victim> set_up(Record& rec, Build build) {
  std::unique_ptr<Victim> v;
  for (int i = 0; i < kSetups; ++i) {
    v.reset();
    const steady::time_point t0 = steady::now();
    v = std::make_unique<Victim>();
    build(rec, *v);
    rec.sample("setup_s", seconds_since(t0));
  }
  reset_peak_rss();
  return v;
}

// bfa-search attack batches: a fixed pool of 32-image batches drawn from the
// test split. A run searches the pool in whole passes, starting at batch
// (seed mod pool), so every run searches the same multiset of batches and
// the step-time percentiles do not move with how many searches fit in the
// run (step costs differ by batch: which layers a search flips decides how
// much of the network each later step re-runs). Every batch's flip sequence
// has a committed hash (perfbench/expected/bfa-search-hashes.json).
constexpr u64 kBfaBatchPool = 8;

/// Batch `index` of the pool: 32 distinct test samples.
std::pair<nn::Tensor, std::vector<u32>> seeded_batch(const nn::Dataset& pool, usize n,
                                                     u64 index) {
  sys::Rng rng(sys::hash_combine(sys::stable_hash64("perfbench-attack-batch"), index));
  std::vector<usize> idx(pool.size());
  for (usize i = 0; i < idx.size(); ++i) idx[i] = i;
  for (usize i = 0; i < n; ++i) {  // partial Fisher-Yates: n distinct samples
    const usize j = i + static_cast<usize>(rng.uniform(idx.size() - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(n);
  return pool.gather(idx);
}

// ----- bfa-search -----------------------------------------------------------------

void run_bfa(Record& rec, u64 seed, double seconds) {
  const auto victim = set_up(rec, build_victim);
  Victim& v = *victim;
  quant::QuantizedModel& qm = *v.qm;
  const auto clean = qm.snapshot();

  attack::BfaConfig bcfg;
  bcfg.max_flips = 30;
  std::string hashes;
  usize reps = 0;
  const steady::time_point start = steady::now();
  while (reps % kBfaBatchPool != 0 || seconds_since(start) < seconds) {
    // Outside the timed region: the clean weights and this repetition's batch.
    qm.restore(clean);
    const u64 batch = (seed + reps) % kBfaBatchPool;
    auto [ax, ay] = seeded_batch(v.test(), 32, batch);
    u64 h = sys::stable_hash64("bfa-flips");
    usize flips = 0;
    // Steps until the random-guess stop or the cap, exactly as
    // ProgressiveBitSearch::run; `step` returns the committed flip and the
    // attack-batch accuracy after it.
    const auto search = [&](auto&& step, double stop) {
      while (flips < bcfg.max_flips) {
        const double c0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
        const steady::time_point t0 = steady::now();
        const auto r = step();
        if (!r.has_value()) break;
        rec.sample("bfa.step_ms", seconds_since(t0) * 1e3);
        rec.sample("bfa.step_cpu_ms", (cpu_s(CLOCK_THREAD_CPUTIME_ID) - c0) * 1e3);
        ++flips;
        h = sys::hash_combine(h, r->first.key());
        if (r->second <= stop) break;
      }
    };
    using Flip = std::optional<std::pair<quant::BitLocation, double>>;
    if (!rec.tracing()) {
      attack::ProgressiveBitSearch bfa(qm, ax, ay, bcfg);
      search([&]() -> Flip {
        const auto r = bfa.step({});
        if (!r.has_value()) return std::nullopt;
        return std::pair{r->loc, r->batch_accuracy_after};
      }, bfa.stop_threshold());
    } else {
      // The same search through the engine with the timed objective; the
      // flip sequence must hash the same as the untraced search's.
      const Timed t(rec, "bfa.search");
      TracedSearch ts(rec, qm, ax, ay);
      search([&]() -> Flip {
        const auto es = ts.step({});
        if (!es.has_value()) return std::nullopt;
        return std::pair{es->loc, es->best.accuracy};
      }, ts.stop_threshold());
      ts.tally();
    }
    hashes += (hashes.empty() ? "" : ",") + std::to_string(batch) + ":" + hex64(h);
    ++reps;
  }
  rec.scalar("peak_rss_mb", peak_rss_mb());
  rec.fact("bfa.rep_hashes", hashes);

  if (!rec.tracing()) return;
  qm.restore(clean);
  auto [ax, ay] = seeded_batch(v.test(), 32, seed % kBfaBatchPool);
  probe_layers(rec, v, ax, ay);
  probe_software_defenses(rec, v, ax, ay);
}

// ----- serve-attack ---------------------------------------------------------------

/// One serve-attack victim: vgg11 in a ProtectedSystem with DNN-Defender
/// protecting the profiled bits of a fully blocked attacker.
void build_served_victim(Record& rec, Victim& v) {
  build_victim(rec, v);
  auto [ax, ay] = v.test().head(32);
  {
    const Timed t(rec, "system.build", "system.build_ms");
    v.psys = std::make_unique<system::ProtectedSystem>(*v.qm);
  }
  core::PriorityProfiler profiler(*v.qm, ax, ay);
  const Timed t(rec, "core.profile", "core.profile_s", 1.0);
  v.psys->install_dnn_defender(profiler.profile_blocked_attacker(60));
}

/// Serial replay of serve_regime's server loop, attacker slots inline, with
/// every layer call timed. Returns the decision digest, which must equal the
/// threaded run's (same fold order as serve_regime).
u64 replay_serving(Record& rec, Victim& v, const serving::ServeConfig& cfg) {
  const nn::Dataset& pool = v.test();
  auto [ex, ey] = pool.head(160);
  auto [ax, ay] = pool.head(32);
  serving::ServingPlan plan;
  for (int i = 0; i < 5; ++i) {
    const Timed t(rec, "serving.plan_serving", "serving.plan_ms");
    plan = serving::plan_serving(cfg, pool.size());
  }
  system::ProtectedSystem& psys = *v.psys;
  nn::Model& model = psys.qm().model();
  model.evaluate_batch(ex, ey);

  TracedSearch search(rec, psys.qm(), ax, ay);
  quant::BitSkipSet learned_blocked;
  u64 digest = plan.digest;
  const u64 tick_ns = static_cast<u64>(cfg.tick_every_us) * 1000ULL;
  usize ticks = 0;
  usize attempts = 0;
  u64 acts = 0;
  nn::Tensor batch_x;
  std::vector<u32> batch_y;
  std::vector<usize> sample_idx;
  for (const serving::PlannedBatch& b : plan.batches) {
    const Timed bt(rec, "serving.batch");
    for (usize k = 0; k < b.count; ++k) {
      digest = sys::hash_combine(digest, plan.arrivals[plan.admitted[b.first + k]].id);
    }
    while (tick_ns > 0 && (ticks + 1) * tick_ns <= b.finish_ns) {
      ++ticks;
      const Timed t(rec, "system.advance_time_to", "system.tick_us", 1e6);
      psys.advance_time_to(static_cast<Picoseconds>(ticks * tick_ns) * 1000);
    }
    if (b.attack_before) {
      const Timed slot(rec, "serving.attack_slot", "serving.attack_slot_ms");
      const auto es = search.step(learned_blocked);
      if (es.has_value()) {
        psys.qm().flip(es->loc);  // DRAM is authoritative: undo the local commit
        const u64 acts0 = psys.device().stats().n_act;
        attack::FlipAttempt attempt;
        {
          const Timed t(rec, "system.attack_bit", "system.attack_bit_ms");
          attempt = psys.attack_bit(es->loc);
        }
        acts += psys.device().stats().n_act - acts0;
        ++attempts;
        if (!attempt.success) learned_blocked.insert(es->loc);
        digest = sys::hash_combine(digest, es->loc.key(), static_cast<u64>(attempt.success));
      } else {
        digest = sys::hash_combine(digest, sys::stable_hash64("bfa-exhausted"));
      }
    }
    sample_idx.clear();
    for (usize k = 0; k < b.count; ++k) {
      sample_idx.push_back(plan.arrivals[plan.admitted[b.first + k]].sample);
    }
    pool.gather_into(sample_idx, batch_x, batch_y);
    nn::BatchEval eval;
    {
      const Timed t(rec, "nn.evaluate_batch", "serving.service_ms");
      eval = model.evaluate_batch(batch_x, batch_y);
    }
    digest = sys::hash_combine(digest, eval.correct);
  }
  digest = sys::hash_combine(digest, ticks);
  search.tally();
  rec.scalar("dram.acts", static_cast<double>(acts));
  rec.scalar("dram.attempts", static_cast<double>(attempts));
  rec.scalar("core.swaps", static_cast<double>(psys.defender()->swap_stats().swaps));
  return digest;
}

void run_serve(Record& rec, u64 seed, double seconds) {
  serving::ServeConfig cfg;
  cfg.rate_rps = 2000;
  cfg.duration_ms = static_cast<usize>(seconds * 1000.0);
  cfg.batch_cap = 8;
  cfg.max_wait_us = 2000;
  cfg.tick_every_us = 500;
  cfg.attack_every = 128;
  cfg.seed = seed;
  // Room for every request (Poisson counts stay far below twice the mean),
  // so the percentiles are exact rather than sampled.
  cfg.reservoir = 2 * cfg.rate_rps * cfg.duration_ms / 1000 + 1024;
  cfg.normalize();

  const auto live = set_up(rec, build_served_victim);
  const nn::Dataset& pool = live->test();
  auto [ex, ey] = pool.head(160);
  auto [ax, ay] = pool.head(32);

  const double cpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
  serving::RegimeStats st;
  {
    const Timed t(rec, "serving.serve_regime");
    st = serving::serve_regime("serve-attack", *live->psys, pool, ex, ey, ax, ay, cfg,
                               /*attack_on=*/true);
  }
  rec.scalar("serve.cpu_s", cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0);
  rec.scalar("peak_rss_mb", peak_rss_mb());
  rec.scalar("serve.p99_ms", static_cast<double>(st.p99_ns) / 1e6);
  rec.scalar("serve.requests", static_cast<double>(st.requests));
  rec.scalar("serve.admitted", static_cast<double>(st.admitted));
  rec.scalar("serve.dropped", static_cast<double>(st.dropped));
  rec.scalar("serve.latencies_seen", static_cast<double>(st.latencies_seen));
  rec.scalar("serve.attack_attempts", static_cast<double>(st.attack_attempts));
  rec.scalar("serve.attack_landed", static_cast<double>(st.attack_landed));
  rec.scalar("serve.accuracy_before", st.accuracy_before);
  rec.scalar("serve.accuracy_after", st.accuracy_after);
  rec.fact("serve.digest", hex64(st.digest));

  // Outside the timed region, in every run: a fresh system replays the plan
  // serially. A threaded run whose attacker raced the server (the search is
  // constructed outside the slot handshake) predicts or attacks differently
  // and so digests differently.
  Victim replay;
  build_served_victim(rec, replay);
  rec.fact("serve.replay_digest", hex64(replay_serving(rec, replay, cfg)));
}

// ----- command line ----------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload bfa-search|serve-attack "
               "--seed N --seconds S --trace 0|1 --out FILE\n",
               why);
  std::exit(2);
}

u64 parse_u64(const char* s, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') usage(what);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out;
  u64 seed = 0;
  u64 seconds = 0;
  u64 trace = 2;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = parse_u64(val, "bad --seed");
    } else if (flag == "--seconds") {
      seconds = parse_u64(val, "bad --seconds");
    } else if (flag == "--trace") {
      trace = parse_u64(val, "bad --trace");
    } else if (flag == "--out") {
      out = val;
    } else {
      usage("unknown flag");
    }
  }
  if (argc % 2 != 1 || workload.empty() || out.empty() || seconds == 0 || trace > 1) {
    usage("missing or malformed arguments");
  }

  // One GEMM thread per compute thread: serve-attack runs 3 threads
  // (server, generator, attacker), so no workload uses more than 3 cores.
  nn::gemm::set_threads(1);
  Record rec(trace == 1);
  rec.fact("isa", nn::simd::isa_name(nn::simd::active_isa()));
  try {
    if (workload == "bfa-search") {
      run_bfa(rec, seed, static_cast<double>(seconds));
    } else if (workload == "serve-attack") {
      run_serve(rec, seed, static_cast<double>(seconds));
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }

  std::ofstream f(out, std::ios::binary);
  f << rec.to_json() << '\n';
  f.close();
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
