// Serving subsystem tests: deterministic plan (arrivals, coalescing, drops,
// ticks), latency reservoir vs a sorted-copy oracle, report round trip +
// validation, the executor's wall-clock pacing, and the end-to-end
// decision-stream determinism gates: across GEMM thread counts, and threaded
// run against a single-threaded replay with the attacker live.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "attack/bfa.hpp"
#include "core/priority_profiler.hpp"
#include "quant/quantizer.hpp"
#include "serving/report.hpp"
#include "serving/server.hpp"
#include "serving/serving.hpp"
#include "sys/json.hpp"
#include "system/protected_system.hpp"
#include "test_util.hpp"

namespace dnnd::serving {
namespace {

ServeConfig small_config() {
  ServeConfig cfg;
  cfg.rate_rps = 3000;
  cfg.duration_ms = 30;
  cfg.batch_cap = 4;
  cfg.max_wait_us = 1500;
  cfg.queue_depth = 32;
  cfg.seed = 77;
  cfg.attack_every = 4;
  cfg.normalize();
  return cfg;
}

TEST(PoissonSchedule, ReproducibleAndSeedSensitive) {
  const ServeConfig cfg = small_config();
  const auto a = poisson_schedule(cfg, 100);
  const auto b = poisson_schedule(cfg, 100);
  ASSERT_EQ(a.size(), b.size());
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].arrival_ns, b[i].arrival_ns);
    EXPECT_EQ(a[i].sample, b[i].sample);
  }
  EXPECT_GT(a.size(), 0u);  // 3000 rps for 30 ms: ~90 arrivals

  ServeConfig other = cfg;
  other.seed = 78;
  const auto c = poisson_schedule(other, 100);
  bool differs = c.size() != a.size();
  for (usize i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].arrival_ns != c[i].arrival_ns;
  }
  EXPECT_TRUE(differs);

  // Arrivals are sorted, ids sequential, samples in range.
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_ns, a[i - 1].arrival_ns);
    }
    EXPECT_LT(a[i].sample, 100u);
  }
}

TEST(ServingPlan, BatchesPartitionAdmittedUnderTheCap) {
  const ServeConfig cfg = small_config();
  const ServingPlan plan = plan_serving(cfg, 100);
  ASSERT_GT(plan.batches.size(), 0u);

  EXPECT_EQ(plan.admitted.size() + plan.dropped.size(), plan.arrivals.size());

  usize consumed = 0;
  u64 prev_finish = 0;
  usize hist_mass = 0, hist_batches = 0;
  for (const PlannedBatch& b : plan.batches) {
    EXPECT_EQ(b.first, consumed);          // batches partition plan.admitted
    EXPECT_GE(b.count, 1u);
    EXPECT_LE(b.count, cfg.batch_cap);
    // A batch cannot close before its members arrived, and the single
    // virtual server never overlaps service windows.
    const Request& head = plan.arrivals[plan.admitted[b.first]];
    const Request& tail = plan.arrivals[plan.admitted[b.first + b.count - 1]];
    EXPECT_GE(b.close_ns, tail.arrival_ns);
    // Deadline property: composition freezes within max_wait of the instant
    // the server turned to the head (close <= max(head deadline, prev
    // finish) in the single-server model).
    EXPECT_LE(b.close_ns, std::max<u64>(head.arrival_ns + cfg.max_wait_us * 1000ULL,
                                        prev_finish));
    EXPECT_GE(b.close_ns, prev_finish);
    EXPECT_EQ(b.finish_ns,
              b.close_ns + cfg.service_ns_base + b.count * cfg.service_ns_per_req);
    prev_finish = b.finish_ns;
    consumed += b.count;
  }
  EXPECT_EQ(consumed, plan.admitted.size());
  for (usize size = 0; size < plan.batch_histogram.size(); ++size) {
    hist_mass += size * plan.batch_histogram[size];
    hist_batches += plan.batch_histogram[size];
  }
  EXPECT_EQ(hist_mass, plan.admitted.size());
  EXPECT_EQ(hist_batches, plan.batches.size());

  // Digest pins the whole decision stream; identical inputs reproduce it.
  EXPECT_EQ(plan_serving(cfg, 100).digest, plan.digest);
  // Ticks cover the virtual horizon at the configured period.
  EXPECT_EQ(plan.ticks, plan.last_finish_ns() / (cfg.tick_every_us * 1000ULL));
}

TEST(ServingPlan, EmptyArrivalWindowYieldsEmptyPlan) {
  // 1 rps over 1 ms: the first exponential gap (mean 1 s) exceeds the
  // window for this seed -- the deterministic empty-window edge case.
  ServeConfig cfg;
  cfg.rate_rps = 1;
  cfg.duration_ms = 1;
  cfg.seed = 5;
  cfg.normalize();
  const ServingPlan plan = plan_serving(cfg, 10);
  ASSERT_TRUE(plan.arrivals.empty());
  EXPECT_TRUE(plan.batches.empty());
  EXPECT_TRUE(plan.admitted.empty());
  EXPECT_TRUE(plan.dropped.empty());
  EXPECT_EQ(plan.queue_peak, 0u);
  EXPECT_EQ(plan.last_finish_ns(), 0u);
  EXPECT_EQ(plan.ticks, 0u);
}

TEST(ServingPlan, SingleRequestClosesAtItsDeadline) {
  // Exactly one arrival: the batch must wait out max_wait (cap can never
  // fill) and dispatch with a single member at head arrival + deadline.
  ServeConfig cfg;
  cfg.rate_rps = 50;
  cfg.duration_ms = 10;
  cfg.max_wait_us = 700;
  cfg.seed = 5;
  cfg.normalize();
  const ServingPlan plan = plan_serving(cfg, 10);
  ASSERT_EQ(plan.arrivals.size(), 1u) << "seed drift: pick a seed with one arrival";
  ASSERT_EQ(plan.batches.size(), 1u);
  EXPECT_EQ(plan.batches[0].count, 1u);
  EXPECT_EQ(plan.batches[0].close_ns,
            plan.arrivals[0].arrival_ns + cfg.max_wait_us * 1000ULL);
  EXPECT_EQ(plan.queue_peak, 1u);
}

TEST(ServingPlan, OverloadDropsAreAccounted) {
  // 200k rps against a ~1.1 ms-per-batch virtual server with a 4-deep
  // queue: most arrivals must be dropped, and every arrival is accounted
  // exactly once.
  ServeConfig cfg;
  cfg.rate_rps = 200'000;
  cfg.duration_ms = 10;
  cfg.batch_cap = 2;
  cfg.queue_depth = 4;
  cfg.max_wait_us = 100;
  cfg.service_ns_base = 1'000'000;
  cfg.seed = 9;
  cfg.normalize();
  const ServingPlan plan = plan_serving(cfg, 10);
  ASSERT_GT(plan.arrivals.size(), 100u);
  EXPECT_GT(plan.dropped.size(), 0u);
  EXPECT_EQ(plan.admitted.size() + plan.dropped.size(), plan.arrivals.size());
  EXPECT_LE(plan.queue_peak, cfg.queue_depth);
  // Dropped arrivals never appear in any batch.
  usize batched = 0;
  for (const PlannedBatch& b : plan.batches) batched += b.count;
  EXPECT_EQ(batched, plan.admitted.size());
}

TEST(LatencyReservoir, PercentileMatchesSortedOracle) {
  sys::Rng rng(123);
  for (const usize n : {usize{1}, usize{2}, usize{5}, usize{97}, usize{500}}) {
    std::vector<u64> values(n);
    for (auto& v : values) v = rng.uniform(1'000'000);
    LatencyReservoir res(n, /*seed=*/1);  // cap == n: retains everything
    for (const u64 v : values) res.add(v);

    std::vector<u64> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      const auto rank = static_cast<usize>(std::ceil(p / 100.0 * static_cast<double>(n)));
      const u64 oracle = sorted[std::max<usize>(rank, 1) - 1];
      EXPECT_EQ(res.percentile(p), oracle) << "n=" << n << " p=" << p;
    }
    EXPECT_EQ(res.percentile(0.0), sorted.front());  // p <= 0: minimum
    EXPECT_EQ(res.percentile(-5.0), sorted.front());
  }
}

TEST(LatencyReservoir, CapsRetentionAndCountsEverything) {
  LatencyReservoir res(10, /*seed=*/7);
  EXPECT_EQ(res.percentile(50.0), 0u);  // empty reservoir
  for (u64 v = 1; v <= 1000; ++v) res.add(v);
  EXPECT_EQ(res.seen(), 1000u);
  ASSERT_EQ(res.samples().size(), 10u);
  for (const u64 s : res.samples()) {
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 1000u);
  }
  // Percentiles come from the retained sample.
  const u64 p50 = res.percentile(50.0);
  EXPECT_TRUE(std::find(res.samples().begin(), res.samples().end(), p50) !=
              res.samples().end());
}

// ----- end-to-end regime determinism ----------------------------------------

/// Builds the test victim (trained MLP, optionally DNN-Defender-protected)
/// and hands fn(psys, pool, eval_x, eval_y, attack_x, attack_y) to the caller.
template <typename Fn>
auto with_test_system(const ServeConfig& cfg, bool defended, Fn&& fn) {
  auto model = testutil::trained_mlp();
  const nn::SplitDataset& data = testutil::easy_data();
  auto [ex, ey] = data.test.head(100);
  auto [ax, ay] = data.test.head(32);
  quant::QuantizedModel qm(*model);
  system::ProtectedSystemConfig scfg;
  scfg.seed = cfg.seed;
  system::ProtectedSystem psys(qm, scfg);
  if (defended) {
    core::PriorityProfiler profiler(qm, ax, ay);
    psys.install_dnn_defender(profiler.profile_blocked_attacker(40));
  }
  return fn(psys, data.test, ex, ey, ax, ay);
}

RegimeStats run_test_regime(const ServeConfig& cfg, bool defended, bool attacked) {
  return with_test_system(cfg, defended, [&](system::ProtectedSystem& psys,
                                             const nn::Dataset& pool, const nn::Tensor& ex,
                                             const std::vector<u32>& ey, const nn::Tensor& ax,
                                             const std::vector<u32>& ay) {
    return serve_regime("test", psys, pool, ex, ey, ax, ay, cfg, attacked);
  });
}

/// serve_regime's decision digest for a defended, attacked run, recomputed
/// on one thread: the same plan, defender ticks and attack slots inline, in
/// serve_regime's fold order. No thread can interleave anything here, so a
/// threaded run that matches it is free of ordering effects.
u64 replay_digest(const ServeConfig& cfg) {
  return with_test_system(cfg, /*defended=*/true, [&](system::ProtectedSystem& psys,
                                                      const nn::Dataset& pool,
                                                      const nn::Tensor& ex,
                                                      const std::vector<u32>& ey,
                                                      const nn::Tensor& ax,
                                                      const std::vector<u32>& ay) {
    const ServingPlan plan = plan_serving(cfg, pool.size());
    nn::Model& model = psys.qm().model();
    model.evaluate_batch(ex, ey);
    attack::ProgressiveBitSearch search(psys.qm(), ax, ay, attack::BfaConfig{});
    quant::BitSkipSet learned_blocked;
    u64 digest = plan.digest;
    const u64 tick_ns = static_cast<u64>(cfg.tick_every_us) * 1000ULL;
    usize ticks = 0;
    nn::Tensor batch_x;
    std::vector<u32> batch_y;
    std::vector<usize> sample_idx;
    for (const PlannedBatch& b : plan.batches) {
      sample_idx.clear();
      for (usize k = 0; k < b.count; ++k) {
        const Request& r = plan.arrivals[plan.admitted[b.first + k]];
        digest = sys::hash_combine(digest, r.id);
        sample_idx.push_back(r.sample);
      }
      while (tick_ns > 0 && (ticks + 1) * tick_ns <= b.finish_ns) {
        ++ticks;
        psys.advance_time_to(static_cast<Picoseconds>(ticks * tick_ns) * 1000);
      }
      if (b.attack_before) {
        const auto rec = search.step(learned_blocked);
        if (rec.has_value()) {
          psys.qm().flip(rec->loc);
          const attack::FlipAttempt attempt = psys.attack_bit(rec->loc);
          if (!attempt.success) learned_blocked.insert(rec->loc);
          digest = sys::hash_combine(digest, rec->loc.key(), static_cast<u64>(attempt.success));
        } else {
          digest = sys::hash_combine(digest, sys::stable_hash64("bfa-exhausted"));
        }
      }
      pool.gather_into(sample_idx, batch_x, batch_y);
      digest = sys::hash_combine(digest, model.evaluate_batch(batch_x, batch_y).correct);
    }
    return sys::hash_combine(digest, ticks);
  });
}

TEST(ServeRegime, StatsReplayThePlanExactly) {
  const ServeConfig cfg = small_config();
  const ServingPlan plan = plan_serving(cfg, testutil::easy_data().test.size());
  const RegimeStats stats = run_test_regime(cfg, /*defended=*/false, /*attacked=*/false);
  EXPECT_EQ(stats.requests, plan.arrivals.size());
  EXPECT_EQ(stats.admitted, plan.admitted.size());
  EXPECT_EQ(stats.dropped, plan.dropped.size());
  EXPECT_EQ(stats.batches, plan.batches.size());
  EXPECT_EQ(stats.batch_histogram, plan.batch_histogram);
  EXPECT_EQ(stats.queue_peak, plan.queue_peak);
  EXPECT_EQ(stats.ticks, plan.ticks);
  EXPECT_EQ(stats.latencies_seen, stats.admitted);
  EXPECT_GT(stats.accuracy_before, 0.5);
  EXPECT_DOUBLE_EQ(stats.accuracy_before, stats.accuracy_after);  // no attack
}

TEST(ServeRegime, BatchesWaitForTheirArrivals) {
  // The server sleeps to each batch's last scheduled arrival, so the run
  // cannot end before the last admitted request arrives, and a request's
  // latency includes at least its batch's compute. A server that stopped
  // pacing would serve the whole plan in one burst, and the latencies,
  // clamped at 0 when a batch ran before its members arrived, would read 0.
  const ServeConfig cfg = small_config();
  const ServingPlan plan = plan_serving(cfg, testutil::easy_data().test.size());
  ASSERT_FALSE(plan.admitted.empty());
  const double last_arrival_ns =
      static_cast<double>(plan.arrivals[plan.admitted.back()].arrival_ns);
  for (const bool defended : {false, true}) {
    const RegimeStats stats = run_test_regime(cfg, defended, /*attacked=*/defended);
    EXPECT_GE(stats.wall_seconds * 1e9, last_arrival_ns) << "defended " << defended;
    EXPECT_GT(stats.p50_ns, 0u) << "defended " << defended;
  }
}

TEST(ServeRegime, DecisionStreamIsIdenticalAcrossGemmThreadCounts) {
  const ServeConfig cfg = small_config();
  const testutil::ThreadsGuard guard;
  nn::gemm::set_threads(1);
  const RegimeStats t1 = run_test_regime(cfg, /*defended=*/true, /*attacked=*/true);
  nn::gemm::set_threads(2);
  const RegimeStats t2 = run_test_regime(cfg, /*defended=*/true, /*attacked=*/true);
  // Every deterministic field must be byte-identical; wall-clock fields
  // (p50/p99/p999, achieved_rps, wall_seconds) are explicitly NOT compared.
  EXPECT_EQ(t1.digest, t2.digest);
  EXPECT_EQ(t1.requests, t2.requests);
  EXPECT_EQ(t1.dropped, t2.dropped);
  EXPECT_EQ(t1.batches, t2.batches);
  EXPECT_EQ(t1.batch_histogram, t2.batch_histogram);
  EXPECT_EQ(t1.ticks, t2.ticks);
  EXPECT_EQ(t1.attack_attempts, t2.attack_attempts);
  EXPECT_EQ(t1.attack_landed, t2.attack_landed);
  EXPECT_EQ(t1.attack_blocked, t2.attack_blocked);
  EXPECT_DOUBLE_EQ(t1.accuracy_before, t2.accuracy_before);
  EXPECT_DOUBLE_EQ(t1.accuracy_after, t2.accuracy_after);
  EXPECT_GT(t1.attack_attempts, 0u);  // the attacker actually ran
  // And a same-thread-count rerun reproduces the digest too.
  nn::gemm::set_threads(1);
  const RegimeStats t3 = run_test_regime(cfg, /*defended=*/true, /*attacked=*/true);
  EXPECT_EQ(t1.digest, t3.digest);
}

TEST(ServeRegime, ThreadedDigestEqualsSerialReplayWithLiveAttacker) {
  // Server and attacker threads at a GEMM team of 4 against the
  // single-threaded replay, over five plan seeds: the decision stream may
  // not depend on how the threads interleave.
  const testutil::ThreadsGuard guard;
  nn::gemm::set_threads(4);
  for (u64 seed = 0; seed < 5; ++seed) {
    ServeConfig cfg = small_config();
    cfg.seed = seed;
    const RegimeStats threaded = run_test_regime(cfg, /*defended=*/true, /*attacked=*/true);
    EXPECT_GT(threaded.attack_attempts, 0u) << "seed " << seed;
    EXPECT_EQ(threaded.digest, replay_digest(cfg)) << "seed " << seed;
  }
}

// ----- report ----------------------------------------------------------------

ServingReport sample_report() {
  ServingReport report;
  report.model = "mlp";
  report.threads = 2;
  report.simd = "scalar";
  report.config = small_config();
  RegimeStats r;
  r.name = "defense-off";
  r.requests = 10;
  r.admitted = 8;
  r.dropped = 2;
  r.batches = 4;
  r.batch_histogram = {0, 1, 2, 1};  // one 1-batch, two 2-batches, one 3-batch = 8 reqs
  r.queue_peak = 3;
  r.ticks = 5;
  r.accuracy_before = 0.9;
  r.accuracy_after = 0.85;
  r.digest = 0xFEEDFACEFEEDFACEull;  // > 2^53: exercises lexeme-exact as_u64
  r.offered_rps = 333.3;
  r.achieved_rps = 320.0;
  r.wall_seconds = 0.03;
  r.p50_ns = 100;
  r.p99_ns = 200;
  r.p999_ns = 300;
  r.latencies_seen = 8;
  report.regimes.push_back(r);
  return report;
}

TEST(ServingReport, JsonRoundTripIsByteIdentical) {
  const ServingReport report = sample_report();
  const std::string json = report.to_json();
  const ServingReport loaded = serving_report_from_json(json);
  EXPECT_EQ(loaded.to_json(), json);
  EXPECT_EQ(loaded.regimes[0].digest, 0xFEEDFACEFEEDFACEull);
  EXPECT_NO_THROW(validate_serving_report(loaded));
  EXPECT_EQ(deterministic_projection(loaded), deterministic_projection(report));
}

TEST(ServingReport, LoaderRejectsMissingFields) {
  const std::string json = sample_report().to_json();
  // Rename each required key in turn (keeps the JSON well-formed but the
  // member missing); the strict loader must refuse every mutant.
  for (const char* key : {"\"digest\"", "\"ticks\"", "\"config\"", "\"p999_ns\"",
                          "\"batch_histogram\"", "\"accuracy_after\""}) {
    std::string broken = json;
    const auto pos = broken.find(key);
    ASSERT_NE(pos, std::string::npos) << key;
    broken[pos + 1] = 'x';  // "digest" -> "xigest": same length, missing key
    EXPECT_THROW(serving_report_from_json(broken), sys::JsonParseError) << key;
  }
  EXPECT_THROW(serving_report_from_json(R"({"bench":"bench_grid"})"),
               sys::JsonParseError);  // wrong document type
}

TEST(ServingReport, SeededMutantsOfATinyArtifactThrowOrRoundTrip) {
  // Loader robustness over a real `bench_serving --tiny` artifact
  // (tests/data/serving_tiny_report.json, DNND_SERVE_RATE=2000,
  // DNND_SERVE_DURATION_MS=150, DNND_SERVE_SEED=11): every truncated,
  // byte-flipped or spliced mutant either fails with JsonParseError or loads
  // to a report whose to_json() reloads to the same bytes. Any other
  // exception is a loader bug; the sanitizer builds run this too.
  std::ifstream in(std::string(DNND_SOURCE_DIR) + "/tests/data/serving_tiny_report.json",
                   std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string artifact = ss.str();
  while (!artifact.empty() && artifact.back() == '\n') artifact.pop_back();
  ASSERT_FALSE(artifact.empty());
  ASSERT_EQ(serving_report_from_json(artifact).to_json(), artifact);

  sys::Rng rng(20240602);
  usize thrown = 0, loaded = 0;
  for (usize i = 0; i < 2000; ++i) {
    const std::string m = testutil::seeded_mutant(artifact, i, rng);
    try {
      const std::string once = serving_report_from_json(m).to_json();
      EXPECT_EQ(serving_report_from_json(once).to_json(), once) << "mutant " << i;
      ++loaded;
    } catch (const sys::JsonParseError&) {
      ++thrown;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw a non-parse error: " << e.what();
    }
  }
  EXPECT_GT(thrown, 0u);
  EXPECT_GT(loaded, 0u);
}

TEST(ServingReport, ValidateCatchesInvariantViolations) {
  {
    ServingReport r = sample_report();
    r.regimes[0].p50_ns = 500;  // > p99
    EXPECT_THROW(validate_serving_report(r), std::runtime_error);
  }
  {
    ServingReport r = sample_report();
    r.regimes[0].dropped = 5;  // admitted + dropped != requests
    EXPECT_THROW(validate_serving_report(r), std::runtime_error);
  }
  {
    ServingReport r = sample_report();
    r.regimes[0].achieved_rps = 0.0;  // admitted > 0 but no throughput
    EXPECT_THROW(validate_serving_report(r), std::runtime_error);
  }
  {
    ServingReport r = sample_report();
    r.regimes[0].batch_histogram[1] = 9;  // histogram mass != admitted
    EXPECT_THROW(validate_serving_report(r), std::runtime_error);
  }
  {
    ServingReport r = sample_report();
    r.regimes[0].accuracy_after = 1.5;
    EXPECT_THROW(validate_serving_report(r), std::runtime_error);
  }
  {
    ServingReport r = sample_report();
    r.regimes.push_back(r.regimes[0]);  // duplicate name
    EXPECT_THROW(validate_serving_report(r), std::runtime_error);
  }
  {
    ServingReport r = sample_report();
    r.regimes.clear();
    EXPECT_THROW(validate_serving_report(r), std::runtime_error);
  }
}

}  // namespace
}  // namespace dnnd::serving
