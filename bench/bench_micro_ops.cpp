// Micro-benchmarks (google-benchmark) of the primitives: DRAM commands,
// RowClone, the four-step protection swap (with and without the fault model
// listening), fault-model cell queries, remapping, quantization, one BFA
// search step, and vgg11's conv and pool layers at batch 32 (forward, and
// backward with and without the input gradient).
//
// Results print in the --benchmark_format display (the usual console table by
// default, or json/csv) AND persist as a JSON document through the shared
// CampaignSink protocol (DNND_JSON_OUT file or DNND_JSON run directory), like
// every other bench -- so CI can upload the micro-op numbers next to the
// campaign and inference artifacts.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <sstream>

#include "attack/bfa.hpp"
#include "core/swap_engine.hpp"
#include "harness/sink.hpp"
#include "models/model_zoo.hpp"
#include "nn/layers.hpp"
#include "nn/trainer.hpp"
#include "nn/workspace.hpp"
#include "rowhammer/hammer_model.hpp"

using namespace dnnd;

namespace {

void BM_DramActivatePrechargePair(benchmark::State& state) {
  dram::DramDevice dev(dram::DramConfig::sim_small());
  u32 row = 0;
  for (auto _ : state) {
    dev.activate({0, 0, row});
    row = (row + 1) % 64;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_DramActivatePrechargePair);

void BM_RowCloneFpm(benchmark::State& state) {
  dram::DramDevice dev(dram::DramConfig::sim_small());
  u32 i = 0;
  for (auto _ : state) {
    dev.rowclone_fpm(0, 0, i % 32, 32 + (i % 32));
    ++i;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          dev.config().geo.row_bytes);
}
BENCHMARK(BM_RowCloneFpm);

void BM_RowClonePsm(benchmark::State& state) {
  dram::DramDevice dev(dram::DramConfig::sim_small());
  u32 i = 0;
  for (auto _ : state) {
    dev.rowclone_psm({0, 0, i % 32}, {1, 0, i % 32});
    ++i;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          dev.config().geo.row_bytes);
}
BENCHMARK(BM_RowClonePsm);

void BM_HammerActWithFaultModel(benchmark::State& state) {
  dram::DramDevice dev(dram::DramConfig::sim_small());
  rowhammer::HammerModel model(dev, rowhammer::HammerModelConfig{});
  u32 flip = 0;
  for (auto _ : state) {
    dev.activate({0, 0, 10 + (flip & 1)});
    flip ^= 1;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_HammerActWithFaultModel);

void BM_FourStepProtectionSwap(benchmark::State& state) {
  dram::DramDevice dev(dram::DramConfig::sim_small());
  dram::RowRemapper remap(dev.config().geo);
  core::SwapEngine engine(dev, remap);
  sys::Rng rng(1);
  u32 i = 0;
  for (auto _ : state) {
    const dram::RowAddr target{0, 0, 4 + (i % 8) * 2};
    const dram::RowAddr nt{0, 0, 30 + (i % 8) * 2};
    engine.protect(target, &nt, rng);
    ++i;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_FourStepProtectionSwap);

// The same swap with the fault model listening, as ProtectedSystem wires it:
// each RowClone's four row events reach HammerModel's per-row bookkeeping.
void BM_ProtectionSwapWithFaultModel(benchmark::State& state) {
  dram::DramDevice dev(dram::DramConfig::sim_default());
  dram::RowRemapper remap(dev.config().geo);
  rowhammer::HammerModel model(dev, rowhammer::HammerModelConfig{});
  core::SwapEngine engine(dev, remap);
  sys::Rng rng(1);
  u32 i = 0;
  for (auto _ : state) {
    const dram::RowAddr target{0, 0, 4 + (i % 8) * 2};
    const dram::RowAddr nt{0, 0, 30 + (i % 8) * 2};
    engine.protect(target, &nt, rng);
    ++i;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_ProtectionSwapWithFaultModel);

// One ground-truth cell query, the attacker's frame-search primitive.
void BM_HammerCellInfo(benchmark::State& state) {
  dram::DramDevice dev(dram::DramConfig::sim_default());
  const rowhammer::HammerModel model(dev, rowhammer::HammerModelConfig{});
  const auto& geo = dev.config().geo;
  u32 i = 0;
  for (auto _ : state) {
    const dram::RowAddr row{i % geo.banks, (i / 8) % geo.subarrays_per_bank,
                            (i / 64) % geo.rows_per_subarray};
    benchmark::DoNotOptimize(model.cell_info(row, (i * 7) % geo.row_bytes, i % 8));
    ++i;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_HammerCellInfo);

void BM_RemapperLookup(benchmark::State& state) {
  dram::RowRemapper remap(dram::DramConfig::sim_default().geo);
  remap.swap_logical({0, 0, 1}, {3, 2, 7});
  u32 i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(remap.to_physical({i % 8, i % 8, i % 128}));
    ++i;
  }
}
BENCHMARK(BM_RemapperLookup);

struct AttackState {
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<quant::QuantizedModel> qm;
  nn::Tensor ax;
  std::vector<u32> ay;

  AttackState() {
    nn::SynthSpec spec;
    spec.num_classes = 4;
    spec.train_per_class = 60;
    spec.test_per_class = 20;
    spec.channels = 1;
    spec.height = 8;
    spec.width = 8;
    spec.noise = 0.8;
    auto data = nn::make_synthetic(spec);
    model = models::make_test_mlp(64, 24, 4, 7);
    nn::TrainConfig cfg;
    cfg.epochs = 3;
    nn::train(*model, data, cfg);
    qm = std::make_unique<quant::QuantizedModel>(*model);
    std::tie(ax, ay) = data.test.head(16);
  }

  static AttackState& instance() {
    static AttackState s;
    return s;
  }
};

void BM_QuantizeModel(benchmark::State& state) {
  auto& s = AttackState::instance();
  for (auto _ : state) {
    quant::QuantizedModel qm(*s.model);
    benchmark::DoNotOptimize(qm.total_weights());
  }
}
BENCHMARK(BM_QuantizeModel);

void BM_BitFlipCommit(benchmark::State& state) {
  auto& s = AttackState::instance();
  u32 i = 0;
  for (auto _ : state) {
    s.qm->flip({0, i % s.qm->layer(0).size(), i % 8});
    ++i;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_BitFlipCommit);

void BM_BfaSearchStep(benchmark::State& state) {
  auto& s = AttackState::instance();
  attack::BfaConfig cfg;
  attack::ProgressiveBitSearch bfa(*s.qm, s.ax, s.ay, cfg);
  const auto snapshot = s.qm->snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfa.step({}));
    state.PauseTiming();
    s.qm->restore(snapshot);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_BfaSearchStep);

void BM_ForwardPassMlpBatch16(benchmark::State& state) {
  auto& s = AttackState::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.model->forward(s.ax, false));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 16);
}
BENCHMARK(BM_ForwardPassMlpBatch16);

// ----- vgg11's layers at batch 32 ---------------------------------------------
// The zoo's vgg11 (width 1) on 3 x 12 x 12 inputs: three 3x3 stride-1 pad-1
// convolutions and two 2x2 max-pools, keyed by their index in the model. The
// team size follows DNND_THREADS; the per-layer rows in ROADMAP.md use
// DNND_THREADS=1.

constexpr usize kLayerBatch = 32;

struct VggConv {
  usize in_ch, out_ch, hw;
};

VggConv vgg11_conv(i64 layer) {
  switch (layer) {
    case 0: return {3, 6, 12};
    case 4: return {6, 12, 6};
    default: return {12, 16, 3};  // layer 8
  }
}

nn::Tensor normal_tensor(std::vector<usize> shape, sys::Rng& rng) {
  nn::Tensor t(std::move(shape));
  for (usize i = 0; i < t.size(); ++i) t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

void BM_Conv2dForward(benchmark::State& state) {
  const VggConv c = vgg11_conv(state.range(0));
  sys::Rng rng(11);
  nn::Conv2d conv(c.in_ch, c.out_ch, 3, 1, 1, rng);
  const nn::Tensor x = normal_tensor({kLayerBatch, c.in_ch, c.hw, c.hw}, rng);
  nn::Tensor y;
  nn::Workspace ws;
  for (auto _ : state) {
    conv.forward_into(x, y, /*train=*/false, ws);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations() * kLayerBatch));
}
BENCHMARK(BM_Conv2dForward)->ArgName("conv")->Arg(0)->Arg(4)->Arg(8);

/// dx = 0 is the BFA prepare's lowest conv, whose input gradient nothing
/// reads (Sequential::backward_params hands it a null dx).
void BM_Conv2dBackward(benchmark::State& state) {
  const VggConv c = vgg11_conv(state.range(0));
  const bool with_dx = state.range(1) != 0;
  sys::Rng rng(12);
  nn::Conv2d conv(c.in_ch, c.out_ch, 3, 1, 1, rng);
  const nn::Tensor x = normal_tensor({kLayerBatch, c.in_ch, c.hw, c.hw}, rng);
  nn::Tensor y, dx;
  nn::Workspace ws;
  conv.forward_into(x, y, /*train=*/false, ws);
  const nn::Tensor dy = normal_tensor(y.shape(), rng);
  for (auto _ : state) {
    conv.backward_into(x, y, dy, with_dx ? &dx : nullptr, ws);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations() * kLayerBatch));
}
BENCHMARK(BM_Conv2dBackward)
    ->ArgNames({"conv", "dx"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1});

/// Pool 3 follows conv0 (6 x 12 x 12), pool 7 follows conv4 (12 x 6 x 6).
void BM_MaxPool2dBackward(benchmark::State& state) {
  const VggConv c = vgg11_conv(state.range(0) == 3 ? 0 : 4);
  sys::Rng rng(13);
  nn::MaxPool2d pool;
  const nn::Tensor x = normal_tensor({kLayerBatch, c.out_ch, c.hw, c.hw}, rng);
  nn::Tensor y, dx;
  nn::Workspace ws;
  pool.forward_into(x, y, /*train=*/false, ws);
  const nn::Tensor dy = normal_tensor(y.shape(), rng);
  for (auto _ : state) {
    pool.backward_into(x, y, dy, &dx, ws);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations() * kLayerBatch));
}
BENCHMARK(BM_MaxPool2dBackward)->ArgName("pool")->Arg(3)->Arg(7);

/// Sends every report to both reporters. Google Benchmark refuses a file
/// reporter without a --benchmark_out file, so the JSON reporter rides along
/// as part of the display reporter instead.
class TeeReporter final : public benchmark::BenchmarkReporter {
 public:
  TeeReporter(benchmark::BenchmarkReporter& a, benchmark::BenchmarkReporter& b) : a_(a), b_(b) {}
  bool ReportContext(const Context& context) override {
    const bool ok_a = a_.ReportContext(context);
    const bool ok_b = b_.ReportContext(context);
    return ok_a && ok_b;
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    a_.ReportRuns(runs);
    b_.ReportRuns(runs);
  }
  void Finalize() override {
    a_.Finalize();
    b_.Finalize();
  }

 private:
  benchmark::BenchmarkReporter& a_;
  benchmark::BenchmarkReporter& b_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The --benchmark_format display (console by default, or json/csv) to
  // stdout, and JSON to a string so the run can persist through the sink like
  // every other bench. The library owns the display reporter.
  benchmark::BenchmarkReporter& display = *benchmark::CreateDefaultDisplayReporter();
  std::ostringstream json;
  benchmark::JSONReporter json_reporter;
  json_reporter.SetOutputStream(&json);
  json_reporter.SetErrorStream(&json);
  TeeReporter both(display, json_reporter);
  benchmark::RunSpecifiedBenchmarks(&both);
  benchmark::Shutdown();

  // The sink protocol appends its own trailing newline.
  std::string doc = json.str();
  while (!doc.empty() && doc.back() == '\n') doc.pop_back();
  std::string destination;
  switch (dnnd::harness::write_document_from_env(doc, "micro_ops", &destination)) {
    case dnnd::harness::SinkWriteStatus::kWritten:
      // stderr, so a --benchmark_format=json|csv stdout stays parseable.
      std::fprintf(stderr, "[sink] micro-op JSON -> %s\n", destination.c_str());
      break;
    case dnnd::harness::SinkWriteStatus::kFailed:
      return 1;
    case dnnd::harness::SinkWriteStatus::kNoSink:
      break;
  }
  return 0;
}
