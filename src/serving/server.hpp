// Wall-clock executor for a ServingPlan: one server thread that starts each
// planned batch at its last member's scheduled arrival, pumps defender ticks
// through ProtectedSystem::advance_time_to, and serves each planned attack
// slot inline (ProtectedSystem::white_box_step) before that slot's batch.
// Wall-clock latencies, measured from each request's scheduled arrival, land
// in a LatencyReservoir; every decision (batch composition, drops, ticks,
// attack targets and outcomes) replays the plan and is folded into a digest
// that must be byte-identical across runs and GEMM thread counts.
#pragma once

#include <string>
#include <vector>

#include "nn/dataset.hpp"
#include "serving/serving.hpp"
#include "system/protected_system.hpp"

namespace dnnd::serving {

/// One serving regime's results. Fields above the wall-clock divider are
/// deterministic (pinned by the digest and the CI byte gates); the latency
/// and throughput numbers below it are real measurements and excluded from
/// every byte comparison.
struct RegimeStats {
  std::string name;

  // ----- deterministic ------------------------------------------------------
  usize requests = 0;  ///< offered arrivals
  usize admitted = 0;
  usize dropped = 0;
  usize batches = 0;
  std::vector<usize> batch_histogram;  ///< [size] -> batch count
  usize queue_peak = 0;                ///< virtual admission-queue peak
  usize ticks = 0;                     ///< defender ticks pumped
  usize attack_attempts = 0;
  usize attack_landed = 0;
  usize attack_blocked = 0;
  double accuracy_before = 0.0;
  double accuracy_after = 0.0;
  u64 digest = 0;  ///< plan digest + attack decisions + prediction stream

  // ----- wall-clock (nondeterministic; never byte-gated) --------------------
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  double wall_seconds = 0.0;
  u64 p50_ns = 0;
  u64 p99_ns = 0;
  u64 p999_ns = 0;
  u64 latencies_seen = 0;  ///< reservoir input count (== admitted)
};

/// Runs one regime: generates the plan for `cfg` over pool.size() samples,
/// executes it against `psys` (whatever mitigation is installed), and -- when
/// `attack_on` -- carries one white-box BFA flip through DRAM at every
/// planned attack slot, on the server thread, proposing flips on
/// (attack_x, attack_y) and learning blocked bits. Accuracy is measured on
/// (eval_x, eval_y) before and after. The caller owns model/system state;
/// run regimes on fresh systems for independent measurements.
RegimeStats serve_regime(const std::string& name, system::ProtectedSystem& psys,
                         const nn::Dataset& pool, const nn::Tensor& eval_x,
                         const std::vector<u32>& eval_y, const nn::Tensor& attack_x,
                         const std::vector<u32>& attack_y, const ServeConfig& cfg,
                         bool attack_on);

}  // namespace dnnd::serving
