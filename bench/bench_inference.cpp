// bench_inference: throughput benchmark for the GEMM inference engine.
//
// Measures (1) full-forward throughput of the engine on a zoo conv model,
// (2) the cost of a dense forward_from(k) probe for every top-level layer k,
// which should scale with the remaining depth, not the whole network,
// (3) the median forward_into time of each top-level layer alone, and
// (4) the median cost of the channel-sparse QuantizedModel::probe -- the
// flip/probe primitive of the BFA family -- for every quantized layer.
//
// Emits machine-readable JSON (the BENCH trajectory seed): to stdout, and to
// the file named by DNND_JSON_OUT when set (the campaign sink convention).
// The JSON carries "threads" (the resolved GEMM team size) and "simd" (the
// active kernel ISA) fields so the CI DNND_THREADS x DNND_SIMD matrix
// uploads distinguishable artifacts. The explicit-SIMD kernels are A/B'd
// against the forced-scalar path (byte-identical, only wall clock moves).
//
//   DNND_BENCH_MODEL   zoo arch (default vgg11)
//   DNND_BENCH_BATCH   batch size (default 32)
//   DNND_BENCH_SCALE   small -> shorter timed windows
//   DNND_THREADS       GEMM team size (0/unset = hardware concurrency)
//   DNND_SIMD          0 = force the scalar microkernels
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "attack/bfa.hpp"
#include "bench_util.hpp"
#include "harness/sink.hpp"
#include "models/model_zoo.hpp"
#include "nn/gemm.hpp"
#include "nn/model.hpp"
#include "nn/simd.hpp"
#include "quant/quantizer.hpp"
#include "sys/env.hpp"
#include "sys/json.hpp"

using namespace dnnd;

namespace {

/// Runs `fn` repeatedly for at least `window` seconds (after one warmup call)
/// and returns the mean seconds per call.
template <typename Fn>
double time_per_call(double window, Fn&& fn) {
  fn();  // warmup: sizes the workspace, faults in pages
  usize calls = 0;
  const bench::Stopwatch sw;
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = sw.seconds();
  } while (elapsed < window);
  return elapsed / static_cast<double>(calls);
}

/// Median seconds of `samples` calls of fn(i), after one warmup call.
template <typename Fn>
double median_per_call(usize samples, Fn&& fn) {
  fn(usize{0});
  std::vector<double> t(samples);
  for (usize i = 0; i < samples; ++i) {
    const bench::Stopwatch sw;
    fn(i);
    t[i] = sw.seconds();
  }
  std::nth_element(t.begin(), t.begin() + static_cast<isize>(samples / 2), t.end());
  return t[samples / 2];
}

}  // namespace

int main() {
  const char* model_env = std::getenv("DNND_BENCH_MODEL");
  const std::string arch = model_env != nullptr && model_env[0] != '\0' ? model_env : "vgg11";
  // 0 means "use the default", matching the DNND_THREADS convention.
  usize batch = sys::env_usize("DNND_BENCH_BATCH", 32);
  if (batch == 0) batch = 32;
  const double window = bench::small_scale() ? 0.1 : 0.5;
  const usize threads = nn::gemm::threads();
  const nn::simd::Isa isa = nn::simd::active_isa();

  bench::banner("Inference engine throughput -- GEMM engine, incremental probes",
                "engine microbenchmark (BENCH trajectory; not a paper figure)");
  std::printf("[threads] GEMM team size: %zu\n", threads);
  std::printf("[simd] kernel ISA: %s (best supported: %s)\n", nn::simd::isa_name(isa),
              nn::simd::isa_name(nn::simd::best_isa()));

  auto model = models::make_by_name(arch, 10, /*seed=*/1);
  sys::Rng rng(99);
  nn::Tensor x({batch, 3, 12, 12});
  for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.normal(0.0, 1.0));
  // Quantized up front, as a campaign is before its attack.
  std::vector<u32> y(batch);
  for (usize i = 0; i < batch; ++i) y[i] = static_cast<u32>(i % 10);
  quant::QuantizedModel qm(*model);
  const auto clean_codes = qm.snapshot();

  // ---- full-forward throughput ----------------------------------------------
  const double engine_spc = time_per_call(window, [&] { model->forward_cached(x); });
  const double engine_ips = static_cast<double>(batch) / engine_spc;
  std::printf("[forward] %s batch=%zu\n", arch.c_str(), batch);
  std::printf("  engine : %8.1f images/s (%.3f ms/batch)\n", engine_ips, engine_spc * 1e3);

  // ---- explicit SIMD tiles vs forced scalar ---------------------------------
  // The scalar leg is byte-identical to the SIMD leg by construction; only
  // the wall clock moves.
  const int saved_scalar = nn::simd::scalar_override();
  nn::simd::set_scalar_override(1);
  const double scalar_spc = time_per_call(window, [&] { model->forward_cached(x); });
  nn::simd::set_scalar_override(0);
  const double simd_spc = time_per_call(window, [&] { model->forward_cached(x); });
  nn::simd::set_scalar_override(saved_scalar);
  const double scalar_ips = static_cast<double>(batch) / scalar_spc;
  const double simd_ips = static_cast<double>(batch) / simd_spc;
  std::printf("[simd] explicit %s tiles vs forced scalar (byte-identical paths):\n",
              nn::simd::isa_name(nn::simd::best_isa()));
  std::printf("  scalar : %8.1f images/s (%.3f ms/batch)\n", scalar_ips, scalar_spc * 1e3);
  std::printf("  simd   : %8.1f images/s (%.2fx over scalar)\n", simd_ips,
              scalar_spc / simd_spc);

  // ---- dense probe cost per layer -------------------------------------------
  // forward_from(k) recomputes layers >= k over the cached prefix; a probe at
  // the last layer should cost a small fraction of a probe at layer 0.
  const usize layers = model->net().layer_count();
  std::vector<double> from_us(layers, 0.0);
  model->forward_cached(x);
  for (usize k = 0; k < layers; ++k) {
    const double spc = time_per_call(window / 4.0, [&] { model->forward_from(k); });
    from_us[k] = spc * 1e6;
  }
  const double full_us = engine_spc * 1e6;
  std::printf("[forward_from] probe cost by first recomputed layer (full fwd %.0f us):\n",
              full_us);
  for (usize k = 0; k < layers; ++k) {
    std::printf("  layer %2zu %-12s %8.1f us (%.2fx of full)\n", k,
                model->net().layer(k).name().c_str(), from_us[k], from_us[k] / full_us);
  }

  // ---- per-layer forward time -----------------------------------------------
  // Each top-level layer's forward_into alone, in eval mode, reading
  // its input from the warm clean cache and writing into a scratch
  // workspace, so the cache is left as it was.
  const usize samples = bench::small_scale() ? 51 : 201;
  std::vector<double> layer_us(layers, 0.0);
  {
    nn::Workspace scratch;
    nn::Tensor out;
    for (usize k = 0; k < layers; ++k) {
      const nn::Tensor& in = model->workspace().slot(
          &model->net(), nn::Workspace::SlotKind::kActivation, k);
      layer_us[k] = 1e6 * median_per_call(samples, [&](usize) {
                      model->net().layer(k).forward_into(in, out, /*train=*/false, scratch);
                    });
    }
  }
  std::printf("[layer] forward_into by top-level layer (median of %zu):\n", samples);
  for (usize k = 0; k < layers; ++k) {
    std::printf("  layer %2zu %-12s %8.1f us\n", k, model->net().layer(k).name().c_str(),
                layer_us[k]);
  }

  // ---- channel-sparse probe cost per quantized layer ------------------------
  // QuantizedModel::probe over one clean cache, each call a different weight
  // row (sign bit); forward_from(k) of the same top-level layer beside it.
  std::vector<double> sparse_us(qm.num_layers(), 0.0);
  model->forward_cached(x);
  for (usize l = 0; l < qm.num_layers(); ++l) {
    const usize size = qm.layer(l).size();
    sparse_us[l] = 1e6 * median_per_call(samples, [&](usize i) {
                     qm.probe({l, (i * 7919) % size, 7});
                   });
  }
  std::printf("[probe] channel-sparse probe cost by quantized layer (median of %zu):\n",
              samples);
  for (usize l = 0; l < qm.num_layers(); ++l) {
    const usize k = qm.layer(l).net_layer;
    std::printf("  quant %2zu layer %2zu %-12s %8.1f us (forward_from %8.1f us, %.1fx)\n", l,
                k, model->net().layer(k).name().c_str(), sparse_us[l], from_us[k],
                from_us[k] / sparse_us[l]);
  }

  // ---- one BFA step on the engine path --------------------------------------
  // End-to-end cost of the attack inner loop: gradient ranking plus candidate
  // channel-sparse QuantizedModel::probe evaluations over one clean cache.
  attack::BfaConfig bcfg;
  bcfg.max_flips = 1;
  // Every iteration searches the same clean model: the restore undoes the
  // committed flip so timings don't drift with the iteration count (the
  // diff-aware restore rewrites only the flipped codes).
  const double step_engine = time_per_call(window, [&] {
    attack::ProgressiveBitSearch bfa(qm, x, y, bcfg);
    bfa.step({});
    qm.restore(clean_codes);
  });
  std::printf("[bfa] one progressive-bit-search step: %.2f ms\n", step_engine * 1e3);

  // ---- JSON -----------------------------------------------------------------
  sys::JsonWriter w;
  w.begin_object();
  w.key("bench").value("bench_inference");
  w.key("model").value(arch);
  w.key("batch").value(batch);
  w.key("threads").value(threads);
  w.key("simd").value(nn::simd::isa_name(isa));
  w.key("engine_images_per_s").value(engine_ips);
  w.key("scalar_images_per_s").value(scalar_ips);
  w.key("simd_images_per_s").value(simd_ips);
  w.key("simd_speedup").value(scalar_spc / simd_spc);
  w.key("full_forward_us").value(full_us);
  w.key("bfa_step_ms").value(step_engine * 1e3);
  w.key("forward_from_us").begin_array();
  for (usize k = 0; k < layers; ++k) {
    w.begin_object();
    w.key("layer").value(k);
    w.key("name").value(model->net().layer(k).name());
    w.key("us").value(from_us[k]);
    w.end_object();
  }
  w.end_array();
  w.key("layer_forward_us").begin_array();
  for (usize k = 0; k < layers; ++k) {
    w.begin_object();
    w.key("layer").value(k);
    w.key("name").value(model->net().layer(k).name());
    w.key("us").value(layer_us[k]);
    w.end_object();
  }
  w.end_array();
  w.key("probe_us").begin_array();
  for (usize l = 0; l < qm.num_layers(); ++l) {
    const usize k = qm.layer(l).net_layer;
    w.begin_object();
    w.key("quant_layer").value(l);
    w.key("layer").value(k);
    w.key("name").value(model->net().layer(k).name());
    w.key("us").value(sparse_us[l]);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::printf("%s\n", w.str().c_str());
  // Persist through the shared sink protocol (DNND_JSON_OUT file or run
  // directory); the unconditional stdout print above is the legacy contract.
  std::string destination;
  switch (harness::write_document_from_env(w.str(), "inference", &destination)) {
    case harness::SinkWriteStatus::kWritten:
      std::printf("[sink] throughput JSON -> %s\n", destination.c_str());
      break;
    case harness::SinkWriteStatus::kFailed:
      return 1;
    case harness::SinkWriteStatus::kNoSink:
      break;
  }
  return 0;
}
