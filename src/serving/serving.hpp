// Serving-under-attack traffic model: the deterministic half of the
// bench_serving pipeline.
//
// The bench must deliver two things that pull in opposite directions: real
// wall-clock tail latencies (inherently nondeterministic) and a
// byte-reproducible account of WHAT was served -- arrival schedule, batch
// composition, drop accounting, defender ticks, attack attempts. The split
// here resolves that: plan_serving() runs the whole open-loop system in
// VIRTUAL time (Poisson arrivals -> bounded admission queue -> batch
// coalescer -> a fixed linear service model), producing a ServingPlan whose
// every field is a pure function of (ServeConfig, sample-pool size). The
// executor (server.hpp) then serves straight from the plan -- each planned
// batch starts at its last member's scheduled wall-clock arrival, and the
// planned defender ticks and attack slots fire in between -- and measures
// real latencies on top. Wall-clock numbers are excluded from every byte gate;
// the plan digest is pinned by tests and CI across runs and thread counts.
#pragma once

#include <vector>

#include "sys/rng.hpp"
#include "sys/types.hpp"

namespace dnnd::serving {

/// Open-loop serving knobs (see serve_config_from_env for the DNND_SERVE_*
/// environment bindings). All integral by design: every field parses through
/// the strict sys::env_usize contract.
struct ServeConfig {
  usize rate_rps = 2000;         ///< offered load, requests per second
  usize duration_ms = 250;       ///< arrival-generation window
  usize batch_cap = 8;           ///< coalescer batch-size cap
  usize max_wait_us = 2000;      ///< coalescer deadline past the head arrival
  usize queue_depth = 64;        ///< bounded admission queue capacity
  u64 seed = 0x5E21;             ///< arrival-schedule / reservoir seed
  usize service_ns_base = 200'000;   ///< virtual per-batch fixed cost
  usize service_ns_per_req = 50'000; ///< virtual per-request marginal cost
  usize tick_every_us = 500;     ///< defender tick period (virtual time)
  usize attack_every = 4;        ///< one attack slot per N batches (0 = none)
  usize reservoir = 4096;        ///< latency reservoir capacity

  /// Clamps the config into its valid domain (rate/duration/cap/queue >= 1,
  /// batch_cap <= queue_depth so a forming batch always fits the queue).
  void normalize();
};

/// Reads DNND_SERVE_* knobs over the defaults above via sys::env_usize:
///   DNND_SERVE_RATE, DNND_SERVE_DURATION_MS, DNND_SERVE_BATCH_CAP,
///   DNND_SERVE_MAX_WAIT_US, DNND_SERVE_QUEUE, DNND_SERVE_SEED,
///   DNND_SERVE_TICK_US, DNND_SERVE_ATTACK_EVERY, DNND_SERVE_RESERVOIR.
/// The result is normalize()d.
ServeConfig serve_config_from_env();

/// One client request: arrival offset from the run epoch plus the index of
/// the dataset sample it asks the model to classify.
struct Request {
  u64 id = 0;
  u64 arrival_ns = 0;
  u32 sample = 0;
};

/// Poisson arrival schedule: exponential inter-arrival gaps at cfg.rate_rps
/// over cfg.duration_ms, sample indices uniform over [0, num_samples).
/// Deterministic in cfg.seed (dedicated "arrivals" RNG stream).
std::vector<Request> poisson_schedule(const ServeConfig& cfg, usize num_samples);

/// One coalesced batch in the virtual-time plan. `first`/`count` index the
/// ADMITTED request sequence (plan.admitted), which batches partition in
/// order.
struct PlannedBatch {
  usize first = 0;
  usize count = 0;
  u64 close_ns = 0;   ///< virtual time the composition froze (= dispatch)
  u64 finish_ns = 0;  ///< close + service_ns_base + count * service_ns_per_req
  bool attack_before = false;  ///< an attack slot precedes this batch
};

/// The full deterministic account of one serving run.
struct ServingPlan {
  std::vector<Request> arrivals;    ///< the complete offered schedule
  std::vector<usize> admitted;      ///< indices into arrivals, arrival order
  std::vector<usize> dropped;       ///< indices into arrivals (queue full)
  std::vector<PlannedBatch> batches;
  std::vector<usize> batch_histogram;  ///< [size] -> batches of that size
  usize queue_peak = 0;             ///< max admission-queue occupancy seen
  usize ticks = 0;                  ///< planned defender ticks (periodic)
  u64 digest = 0;                   ///< hash of every decision above

  [[nodiscard]] u64 last_finish_ns() const {
    return batches.empty() ? 0 : batches.back().finish_ns;
  }
};

/// Runs the virtual-time open-loop simulation. Model: requests are admitted
/// to a bounded queue at their arrival instant (queue full -> dropped, never
/// retried). A single server alternates coalescing and service: when free at
/// time T it takes the queue head, admits arrivals up to T, then closes the
/// batch at the earlier of (cap filled) and (head arrival + max_wait), never
/// before T; service occupies it until close + base + count*per_req. Ticks
/// fire every tick_every_us of virtual time up to the last finish; an attack
/// slot precedes every attack_every-th batch (when enabled downstream).
ServingPlan plan_serving(const ServeConfig& cfg, usize num_samples);

/// Fixed-size uniform sample of a latency stream (Vitter's Algorithm R) with
/// nearest-rank percentile queries. Deterministic in (capacity, seed, input
/// order); the serving digest excludes its contents anyway because the
/// values themselves are wall-clock measurements.
class LatencyReservoir {
 public:
  LatencyReservoir(usize capacity, u64 seed);

  void add(u64 latency_ns);

  /// Total values offered (>= retained sample count).
  [[nodiscard]] u64 seen() const { return seen_; }
  [[nodiscard]] const std::vector<u64>& samples() const { return samples_; }

  /// Nearest-rank percentile over the RETAINED sample: the ceil(p/100 * n)-th
  /// smallest value (p in (0, 100]; p <= 0 returns the minimum). Returns 0
  /// on an empty reservoir.
  [[nodiscard]] u64 percentile(double p) const;

 private:
  usize cap_;
  sys::Rng rng_;
  u64 seen_ = 0;
  std::vector<u64> samples_;
};

}  // namespace dnnd::serving
