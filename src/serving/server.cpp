#include "serving/server.hpp"

#include <chrono>
#include <optional>
#include <span>
#include <thread>

namespace dnnd::serving {

namespace {

using steady = std::chrono::steady_clock;

}  // namespace

RegimeStats serve_regime(const std::string& name, system::ProtectedSystem& psys,
                         const nn::Dataset& pool, const nn::Tensor& eval_x,
                         const std::vector<u32>& eval_y, const nn::Tensor& attack_x,
                         const std::vector<u32>& attack_y, const ServeConfig& cfg,
                         bool attack_on) {
  RegimeStats stats;
  stats.name = name;

  const ServingPlan plan = plan_serving(cfg, pool.size());
  stats.requests = plan.arrivals.size();
  stats.admitted = plan.admitted.size();
  stats.dropped = plan.dropped.size();
  stats.batches = plan.batches.size();
  stats.batch_histogram = plan.batch_histogram;
  stats.queue_peak = plan.queue_peak;
  stats.offered_rps = static_cast<double>(stats.requests) /
                      (static_cast<double>(cfg.duration_ms) / 1e3);

  nn::Model& model = psys.qm().model();
  stats.accuracy_before = model.evaluate_batch(eval_x, eval_y).accuracy;

  u64 digest = plan.digest;

  // The search's constructor runs a forward on the model; it is built here,
  // before the first batch, where a serial replay of this loop builds it too.
  std::optional<attack::ProgressiveBitSearch> search;
  if (attack_on) search.emplace(psys.qm(), attack_x, attack_y, attack::BfaConfig{});
  quant::BitSkipSet learned_blocked;

  // ----- server loop ---------------------------------------------------------
  // A planned batch starts when its last member arrives. The plan already
  // charged the drops at their virtual arrival instants, so nothing here
  // re-drops under wall-clock jitter.
  LatencyReservoir reservoir(cfg.reservoir, cfg.seed);
  const u64 tick_ns = static_cast<u64>(cfg.tick_every_us) * 1000ULL;
  usize ticks_done = 0;
  nn::Tensor batch_x;
  std::vector<u32> batch_y;
  std::vector<usize> sample_idx;
  const steady::time_point t0 = steady::now();
  for (const PlannedBatch& b : plan.batches) {
    const std::span<const usize> members(plan.admitted.data() + b.first, b.count);
    std::this_thread::sleep_until(
        t0 + std::chrono::nanoseconds(plan.arrivals[members.back()].arrival_ns));
    sample_idx.clear();
    for (const usize idx : members) {
      digest = sys::hash_combine(digest, plan.arrivals[idx].id);
      sample_idx.push_back(plan.arrivals[idx].sample);
    }

    // Defender maintenance scheduled in VIRTUAL time: pump every periodic
    // tick due by this batch's finish instant. With no attack there are no
    // DRAM commands, so this is the only thing advancing the device clock.
    while (tick_ns > 0 && (ticks_done + 1) * tick_ns <= b.finish_ns) {
      ticks_done += 1;
      psys.advance_time_to(static_cast<Picoseconds>(ticks_done * tick_ns) * 1000);
    }

    // The attacker's slot: one white-box flip through DRAM, served inline
    // before the batch, so it sits at a fixed point of the decision stream.
    if (b.attack_before && attack_on) {
      const auto attempt = psys.white_box_step(*search, learned_blocked);
      if (attempt.has_value()) {
        stats.attack_attempts += 1;
        if (attempt->success) {
          stats.attack_landed += 1;
        } else {
          stats.attack_blocked += 1;
        }
        digest = sys::hash_combine(digest, attempt->target.key(),
                                   static_cast<u64>(attempt->success));
      } else {
        digest = sys::hash_combine(digest, sys::stable_hash64("bfa-exhausted"));
      }
    }

    pool.gather_into(sample_idx, batch_x, batch_y);
    const nn::BatchEval eval = model.evaluate_batch(batch_x, batch_y);
    digest = sys::hash_combine(digest, eval.correct);

    const steady::time_point now = steady::now();
    for (const usize idx : members) {
      const auto arrival = t0 + std::chrono::nanoseconds(plan.arrivals[idx].arrival_ns);
      const auto waited = std::chrono::duration_cast<std::chrono::nanoseconds>(
          now - arrival);
      reservoir.add(waited.count() > 0 ? static_cast<u64>(waited.count()) : 0);
    }
  }
  stats.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(steady::now() - t0).count();

  stats.ticks = ticks_done;
  digest = sys::hash_combine(digest, ticks_done);
  stats.digest = digest;
  stats.accuracy_after = model.evaluate_batch(eval_x, eval_y).accuracy;

  stats.latencies_seen = reservoir.seen();
  stats.p50_ns = reservoir.percentile(50.0);
  stats.p99_ns = reservoir.percentile(99.0);
  stats.p999_ns = reservoir.percentile(99.9);
  stats.achieved_rps = stats.wall_seconds > 0.0
                           ? static_cast<double>(stats.admitted) / stats.wall_seconds
                           : 0.0;
  return stats;
}

}  // namespace dnnd::serving
