#include "serving/serving.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "sys/env.hpp"

namespace dnnd::serving {

void ServeConfig::normalize() {
  rate_rps = std::max<usize>(rate_rps, 1);
  duration_ms = std::max<usize>(duration_ms, 1);
  batch_cap = std::max<usize>(batch_cap, 1);
  queue_depth = std::max<usize>(queue_depth, 1);
  // A forming batch lives inside the admission queue; a cap beyond the queue
  // depth could never fill and would skew the deadline accounting.
  batch_cap = std::min(batch_cap, queue_depth);
  reservoir = std::max<usize>(reservoir, 1);
}

ServeConfig serve_config_from_env() {
  ServeConfig cfg;
  cfg.rate_rps = sys::env_usize("DNND_SERVE_RATE", cfg.rate_rps);
  cfg.duration_ms = sys::env_usize("DNND_SERVE_DURATION_MS", cfg.duration_ms);
  cfg.batch_cap = sys::env_usize("DNND_SERVE_BATCH_CAP", cfg.batch_cap);
  cfg.max_wait_us = sys::env_usize("DNND_SERVE_MAX_WAIT_US", cfg.max_wait_us);
  cfg.queue_depth = sys::env_usize("DNND_SERVE_QUEUE", cfg.queue_depth);
  cfg.seed = sys::env_usize("DNND_SERVE_SEED", static_cast<usize>(cfg.seed));
  cfg.tick_every_us = sys::env_usize("DNND_SERVE_TICK_US", cfg.tick_every_us);
  cfg.attack_every = sys::env_usize("DNND_SERVE_ATTACK_EVERY", cfg.attack_every);
  cfg.reservoir = sys::env_usize("DNND_SERVE_RESERVOIR", cfg.reservoir);
  cfg.normalize();
  return cfg;
}

std::vector<Request> poisson_schedule(const ServeConfig& cfg, usize num_samples) {
  sys::Rng rng = sys::Rng(cfg.seed).split("arrivals");
  const double mean_gap_ns = 1e9 / static_cast<double>(cfg.rate_rps);
  const u64 horizon_ns = static_cast<u64>(cfg.duration_ms) * 1'000'000ULL;
  std::vector<Request> out;
  double t = 0.0;
  for (u64 id = 0;; ++id) {
    // Exponential gap by inversion; 1 - u is in (0, 1] so log() is finite.
    const double u = rng.uniform01();
    t += -std::log(1.0 - u) * mean_gap_ns;
    if (t >= static_cast<double>(horizon_ns)) break;
    Request r;
    r.id = id;
    r.arrival_ns = static_cast<u64>(t);
    r.sample = num_samples == 0 ? 0 : static_cast<u32>(rng.uniform(num_samples));
    out.push_back(r);
  }
  return out;
}

namespace {

u64 mix(u64 acc, u64 v) { return sys::hash_combine(acc, v); }

}  // namespace

ServingPlan plan_serving(const ServeConfig& cfg, usize num_samples) {
  ServingPlan plan;
  plan.arrivals = poisson_schedule(cfg, num_samples);
  plan.batch_histogram.assign(cfg.batch_cap + 1, 0);

  const u64 wait_ns = static_cast<u64>(cfg.max_wait_us) * 1000ULL;
  const usize n = plan.arrivals.size();

  std::deque<usize> queue;  ///< admitted, not yet batched (indices)
  usize next = 0;           ///< next arrival to consider
  u64 server_free = 0;      ///< virtual time the server goes idle

  // Admission at one arrival instant: the queue either has room or the
  // request is dropped on the floor (open-loop clients do not retry).
  auto admit = [&](usize i) {
    if (queue.size() >= cfg.queue_depth) {
      plan.dropped.push_back(i);
      return;
    }
    queue.push_back(i);
    plan.admitted.push_back(i);
    plan.queue_peak = std::max(plan.queue_peak, queue.size());
  };

  usize admitted_consumed = 0;  ///< prefix of plan.admitted already batched
  while (next < n || !queue.empty()) {
    if (queue.empty()) {
      // Idle server: jump to the next arrival.
      server_free = std::max(server_free, plan.arrivals[next].arrival_ns);
      admit(next++);
      if (queue.empty()) continue;  // depth 0 is normalized away; safety
    }
    // The server turns to the queue at t_open; everything that arrived by
    // then joins the admission queue first (this is where overload drops).
    const u64 t_open = std::max(server_free, plan.arrivals[queue.front()].arrival_ns);
    while (next < n && plan.arrivals[next].arrival_ns <= t_open) admit(next++);

    // Coalesce: close when the cap fills or at head arrival + max_wait,
    // but never before t_open (a stale deadline closes immediately).
    const u64 deadline = plan.arrivals[queue.front()].arrival_ns + wait_ns;
    u64 close = t_open;
    if (queue.size() < cfg.batch_cap) {
      while (queue.size() < cfg.batch_cap && next < n &&
             plan.arrivals[next].arrival_ns <= deadline) {
        close = std::max(t_open, plan.arrivals[next].arrival_ns);
        admit(next++);
      }
      if (queue.size() < cfg.batch_cap) close = std::max(t_open, deadline);
    }

    PlannedBatch b;
    b.first = admitted_consumed;
    b.count = std::min(queue.size(), cfg.batch_cap);
    b.close_ns = close;
    b.finish_ns = close + cfg.service_ns_base +
                  static_cast<u64>(b.count) * cfg.service_ns_per_req;
    b.attack_before =
        cfg.attack_every > 0 && !plan.batches.empty() &&
        plan.batches.size() % cfg.attack_every == 0;
    for (usize k = 0; k < b.count; ++k) queue.pop_front();
    admitted_consumed += b.count;
    plan.batch_histogram[b.count] += 1;
    server_free = b.finish_ns;
    plan.batches.push_back(b);
  }

  const u64 tick_ns = static_cast<u64>(cfg.tick_every_us) * 1000ULL;
  plan.ticks = tick_ns == 0 ? 0 : static_cast<usize>(plan.last_finish_ns() / tick_ns);

  // Digest: every decision the executor must reproduce, in order. Excludes
  // anything wall-clock.
  u64 d = sys::stable_hash64("serving-plan-v1");
  d = mix(d, n);
  for (const Request& r : plan.arrivals) {
    d = mix(d, sys::hash_combine(r.id, r.arrival_ns, r.sample));
  }
  for (usize i : plan.dropped) d = mix(d, 0x6D72u ^ i);
  for (const PlannedBatch& b : plan.batches) {
    d = mix(d, sys::hash_combine(b.first, b.count, b.close_ns,
                                 static_cast<u64>(b.attack_before)));
  }
  d = mix(d, plan.queue_peak);
  d = mix(d, plan.ticks);
  plan.digest = d;
  return plan;
}

// ----- LatencyReservoir ------------------------------------------------------

LatencyReservoir::LatencyReservoir(usize capacity, u64 seed)
    : cap_(std::max<usize>(capacity, 1)), rng_(sys::Rng(seed).split("reservoir")) {
  samples_.reserve(cap_);
}

void LatencyReservoir::add(u64 latency_ns) {
  seen_ += 1;
  if (samples_.size() < cap_) {
    samples_.push_back(latency_ns);
    return;
  }
  // Algorithm R: the i-th value (1-based) replaces a random slot with
  // probability cap/i, keeping every prefix uniformly represented.
  const u64 j = rng_.uniform(seen_);
  if (j < cap_) samples_[static_cast<usize>(j)] = latency_ns;
}

u64 LatencyReservoir::percentile(double p) const {
  if (samples_.empty()) return 0;
  std::vector<u64> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  const double rank = std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * n);
  const usize idx = rank < 1.0 ? 0 : static_cast<usize>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace dnnd::serving
