// Inference-engine behaviour: the probes (dense forward_from and the
// channel-sparse QuantizedModel::probe) are bitwise identical to a full fresh
// forward for a flip in ANY layer, on the SIMD and the scalar kernels, across
// arbitrary flip/unflip/restore sequences, and never write the clean
// activation cache; the incremental evaluation helpers match their full-pass
// counterparts, results are byte-identical at every GEMM team size, the
// workspace arenas reach a zero-allocation steady state -- serial and
// threaded -- and hold all of a network's forward state.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <tuple>

#include "models/model_zoo.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "quant/quantizer.hpp"
#include "test_util.hpp"

namespace dnnd::nn {
namespace {

using testutil::ThreadsGuard;

/// Small conv+dense model covering conv, batchnorm, pooling, and dense layers.
std::unique_ptr<Model> make_conv_dense(sys::Rng& rng) {
  auto m = std::make_unique<Model>("tiny_conv_dense");
  m->add(std::make_unique<Conv2d>(1, 4, 3, 1, 1, rng));
  m->add(std::make_unique<BatchNorm2d>(4));
  m->add(std::make_unique<ReLU>());
  m->add(std::make_unique<MaxPool2d>());
  m->add(std::make_unique<Conv2d>(4, 6, 3, 1, 1, rng));
  m->add(std::make_unique<ReLU>());
  m->add(std::make_unique<Flatten>());
  m->add(std::make_unique<Dense>(6 * 3 * 3, 16, rng));
  m->add(std::make_unique<ReLU>());
  m->add(std::make_unique<Dense>(16, 4, rng));
  return m;
}

Tensor random_input(usize n, sys::Rng& rng) {
  Tensor x({n, 1, 6, 6});
  for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.normal(0.0, 1.0));
  return x;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(ForwardFrom, BitwiseIdenticalToFullForwardForEveryLayer) {
  sys::Rng rng(41);
  auto m = make_conv_dense(rng);
  const Tensor x = random_input(3, rng);
  quant::QuantizedModel qm(*m);

  for (usize l = 0; l < qm.num_layers(); ++l) {
    m->forward_cached(x);  // clean cache
    const quant::BitLocation loc{l, qm.layer(l).size() / 2, 6};
    qm.flip(loc);
    const Tensor incremental = m->forward_from(qm.layer(l).net_layer);
    const Tensor full = m->forward_cached(x);  // fresh full pass, same weights
    EXPECT_TRUE(bitwise_equal(incremental, full))
        << "quant layer " << l << " (net layer " << qm.layer(l).net_layer << ")";
    qm.flip(loc);  // revert
  }
}

TEST(ForwardFrom, OutOfOrderProbesStayExact) {
  // The BFA evaluates candidates in estimated-gain order, which jumps between
  // layers arbitrarily. Here each probe commits its flip through qm.flip,
  // which marks the cache stale from that layer, so a later probe above the
  // lowest such layer must first refresh the clean prefix it reads; the
  // probe's own layers run in the probe workspace and leave the cache alone.
  // Every probe must equal a from-scratch forward. A twin model with
  // identical weights provides the pristine reference; the probed model is
  // never fully re-forwarded inside the loop.
  sys::Rng rng_a(42), rng_b(42);
  auto probed = make_conv_dense(rng_a);
  auto twin = make_conv_dense(rng_b);
  sys::Rng xrng(43);
  const Tensor x = random_input(2, xrng);
  quant::QuantizedModel qm(*probed);
  quant::QuantizedModel qm_twin(*twin);
  sys::Rng order_rng(7);

  probed->forward_cached(x);
  for (int probe = 0; probe < 12; ++probe) {
    const usize l = order_rng.uniform(qm.num_layers());
    const quant::BitLocation loc{l, order_rng.uniform(qm.layer(l).size()),
                                 static_cast<u32>(order_rng.uniform(8))};
    qm.flip(loc);
    const Tensor incremental = probed->forward_from(qm.layer(l).net_layer);
    qm.flip(loc);  // revert; cache intentionally left dirty beyond layer l

    qm_twin.flip(loc);
    const Tensor full = twin->forward_cached(x);
    qm_twin.flip(loc);
    EXPECT_TRUE(bitwise_equal(incremental, full)) << "probe " << probe << " layer " << l;
  }
}

TEST(ForwardFrom, LayerZeroEqualsFullForward) {
  sys::Rng rng(43);
  auto m = make_conv_dense(rng);
  const Tensor x = random_input(2, rng);
  const Tensor full = m->forward_cached(x);
  const Tensor from0 = m->forward_from(0);
  EXPECT_TRUE(bitwise_equal(full, from0));
}

TEST(ForwardFrom, ThrowsWithoutPriorForward) {
  sys::Rng rng(44);
  auto m = make_conv_dense(rng);
  EXPECT_THROW(m->forward_from(0), std::logic_error);
}

TEST(EvaluateBatch, MatchesSeparateLossAndAccuracy) {
  sys::Rng rng(45);
  auto m = make_conv_dense(rng);
  const Tensor x = random_input(4, rng);
  const std::vector<u32> y{0, 3, 1, 2};
  const BatchEval ev = m->evaluate_batch(x, y);
  EXPECT_EQ(ev.loss, m->loss(x, y));
  EXPECT_EQ(ev.accuracy, m->accuracy(x, y));
  const auto pred = argmax_rows(m->forward(x));
  usize hits = 0;
  for (usize i = 0; i < pred.size(); ++i) hits += pred[i] == y[i] ? 1 : 0;
  EXPECT_EQ(ev.correct, hits);
}

TEST(Workspace, ZeroAllocSteadyStateForwardBackward) {
  sys::Rng rng(46);
  auto m = make_conv_dense(rng);
  const Tensor x = random_input(3, rng);
  const std::vector<u32> y{1, 0, 2};

  // Warm up: first pass creates every slot and sizes every buffer.
  m->zero_grad();
  m->loss_and_grad(x, y);
  m->evaluate_batch(x, y);
  const usize warm = m->workspace().alloc_events();
  const usize warm_capacity = m->workspace().slot_capacity();
  const float* logits_storage = m->forward_cached(x).data();
  ASSERT_GT(warm, 0u);

  for (int iter = 0; iter < 5; ++iter) {
    m->zero_grad();
    m->loss_and_grad(x, y);
    m->evaluate_batch(x, y);
  }
  EXPECT_EQ(m->workspace().alloc_events(), warm)
      << "steady-state forward/backward grew the workspace arena";
  // Reallocation of slot storage would escape alloc_events(); the capacity
  // total and the stable logits pointer pin it down.
  EXPECT_EQ(m->workspace().slot_capacity(), warm_capacity)
      << "steady-state iterations reallocated slot tensor storage";
  EXPECT_EQ(m->forward_cached(x).data(), logits_storage)
      << "steady-state forward moved the cached logits storage";
}

TEST(Workspace, ZeroAllocAcrossIncrementalProbes) {
  // Both arenas, the clean cache and the probe workspace, stop growing once
  // every probe shape has run: dense forward_from probes and channel-sparse
  // QuantizedModel::probe calls alike.
  sys::Rng rng(47);
  auto m = make_conv_dense(rng);
  const Tensor x = random_input(2, rng);
  quant::QuantizedModel qm(*m);

  auto round = [&] {
    m->forward_cached(x);
    for (usize l = 0; l < qm.num_layers(); ++l) {
      qm.flip({l, 0, 7});
      m->forward_from(qm.layer(l).net_layer);
      qm.flip({l, 0, 7});
      qm.probe({l, qm.layer(l).size() - 1, 7});
    }
  };
  round();
  const usize warm = m->workspace().alloc_events();
  const usize warm_probe = m->probe_workspace().alloc_events();
  const usize warm_probe_capacity = m->probe_workspace().slot_capacity();
  ASSERT_GT(warm_probe, 0u);
  round();
  EXPECT_EQ(m->workspace().alloc_events(), warm);
  EXPECT_EQ(m->probe_workspace().alloc_events(), warm_probe)
      << "steady-state probes grew the probe workspace";
  EXPECT_EQ(m->probe_workspace().slot_capacity(), warm_probe_capacity)
      << "steady-state probes reallocated probe workspace storage";
}

TEST(ForwardFrom, RejectsTrainModeAndLeavesRunningStatistics) {
  // A probe must never mutate model state: a train-mode forward_from would
  // run BatchNorm on batch statistics and update running_mean/running_var.
  sys::Rng rng(49);
  auto m = make_conv_dense(rng);
  const Tensor x = random_input(3, rng);
  m->forward_cached(x, /*train=*/true);  // non-trivial running statistics
  m->forward_cached(x);
  std::vector<Tensor> before;
  for (Tensor* t : m->net().state_tensors()) before.push_back(*t);
  ASSERT_FALSE(before.empty());

  EXPECT_THROW(m->forward_from(0, /*train=*/true), std::invalid_argument);
  EXPECT_THROW(m->forward_from(1, /*train=*/true), std::invalid_argument);
  const std::vector<Tensor*> after = m->net().state_tensors();
  ASSERT_EQ(after.size(), before.size());
  for (usize i = 0; i < after.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(*after[i], before[i])) << "state tensor " << i;
  }
}

// ------------------------------------------------------------ SparseProbe ----

/// conv (stride/pad/kernel as given) -> bn -> relu -> gap -> dense on 2 x 7 x 7
/// inputs: odd sizes, a 1x1 or strided kernel and GlobalAvgPool reach the
/// row kernel and the channel run where the zoo's top level does not.
std::unique_ptr<Model> make_strided(sys::Rng& rng, usize k, usize stride, usize pad) {
  auto m = std::make_unique<Model>("strided");
  m->add(std::make_unique<Conv2d>(2, 5, k, stride, pad, rng));
  m->add(std::make_unique<BatchNorm2d>(5));
  m->add(std::make_unique<ReLU>());
  m->add(std::make_unique<GlobalAvgPool>());
  m->add(std::make_unique<Dense>(5, 3, rng));
  return m;
}

/// Prices `probes` random flips (a sign bit every third one) with
/// QuantizedModel::probe over ONE clean cache, and compares each probe's
/// logits byte for byte with a twin's fresh full forward of the flipped
/// model. `make` builds the same weights on every call.
template <typename Make>
void expect_probes_match_twin(Make make, const Tensor& x, bool scalar, int probes,
                              u64 seed, const std::string& what) {
  testutil::SimdGuard guard;
  simd::set_scalar_override(scalar ? 1 : 0);
  auto probed = make();
  auto twin = make();
  // Identical non-zero biases, BatchNorm affine parameters and running
  // statistics in both, so every term of every kernel counts.
  for (Model* m : {probed.get(), twin.get()}) {
    sys::Rng prng(seed);
    for (ParamRef& pr : m->params()) {
      if (pr.quantizable) continue;
      for (usize i = 0; i < pr.value->size(); ++i) {
        (*pr.value)[i] = static_cast<float>(prng.normal(0.5, 0.5));
      }
    }
    m->forward_cached(x, /*train=*/true);
  }
  quant::QuantizedModel qm(*probed);
  quant::QuantizedModel qm_twin(*twin);
  probed->forward_cached(x);
  sys::Rng order(seed);
  for (int p = 0; p < probes; ++p) {
    const usize l = order.uniform(qm.num_layers());
    const usize index = order.uniform(qm.layer(l).size());
    const u32 bit = p % 3 == 0 ? 7u : static_cast<u32>(order.uniform(8));
    const quant::BitLocation loc{l, index, bit};
    const Tensor& logits = qm.probe(loc);

    qm_twin.flip(loc);
    const Tensor& full = twin->forward_cached(x);
    EXPECT_TRUE(bitwise_equal(logits, full))
        << what << (scalar ? " scalar" : " simd") << " probe " << p << " layer " << l
        << " index " << index << " bit " << bit;
    qm_twin.flip(loc);
  }
}

TEST(SparseProbe, MatchesFullForwardOnRandomFlips) {
  sys::Rng xrng(70);
  Tensor img({4, 3, 12, 12});
  for (usize i = 0; i < img.size(); ++i) img[i] = static_cast<float>(xrng.normal(0.0, 1.0));
  const Tensor small = random_input(3, xrng);
  Tensor odd({3, 2, 7, 7});
  for (usize i = 0; i < odd.size(); ++i) odd[i] = static_cast<float>(xrng.normal(0.0, 1.0));

  for (const bool scalar : {false, true}) {
    for (const char* arch : {"vgg11", "resnet20"}) {
      expect_probes_match_twin([&] { return models::make_by_name(arch, 10, /*seed=*/7); }, img,
                               scalar, 40, 71, arch);
    }
    expect_probes_match_twin(
        [] {
          sys::Rng rng(72);
          return make_conv_dense(rng);
        },
        small, scalar, 40, 73, "conv_dense");
    for (const auto& [k, stride, pad] : {std::tuple<usize, usize, usize>{3, 2, 1},
                                         {1, 2, 0}, {3, 1, 0}, {2, 3, 1}}) {
      expect_probes_match_twin(
          [k = k, stride = stride, pad = pad] {
            sys::Rng rng(74);
            return make_strided(rng, k, stride, pad);
          },
          odd, scalar, 20, 75,
          "strided k" + std::to_string(k) + " s" + std::to_string(stride) + " p" +
              std::to_string(pad));
    }
  }
}

TEST(SparseProbe, LeavesCleanCacheUntouched) {
  // Probes compute in the probe workspace: twenty of them, channel-sparse
  // and dense, at random layers leave every clean activation slot byte for
  // byte as the forward wrote it, and the cache still backs an incremental
  // gradient pass identical to a fresh forward + backward.
  for (const char* arch : {"vgg11", "resnet20"}) {
    sys::Rng xrng(76);
    Tensor x({4, 3, 12, 12});
    for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(xrng.normal(0.0, 1.0));
    const std::vector<u32> y{0, 1, 2, 3};
    auto m = models::make_by_name(arch, 10, /*seed=*/8);
    auto fresh = models::make_by_name(arch, 10, /*seed=*/8);
    quant::QuantizedModel qm(*m);
    quant::QuantizedModel qm_fresh(*fresh);

    Sequential& net = m->net();
    auto slot = [&](usize i) -> const Tensor& {
      return m->workspace().slot(&net, Workspace::SlotKind::kActivation, i);
    };
    m->zero_grad();
    m->loss_and_grad_incremental(x, y);
    std::vector<Tensor> snapshot;
    for (usize i = 0; i <= net.layer_count(); ++i) snapshot.push_back(slot(i));

    sys::Rng order(77);
    for (int p = 0; p < 20; ++p) {
      const usize l = order.uniform(qm.num_layers());
      const quant::BitLocation loc{l, order.uniform(qm.layer(l).size()),
                                   static_cast<u32>(order.uniform(8))};
      if (p % 2 == 0) {
        qm.probe(loc);
      } else {
        qm.flip(loc);
        m->forward_from(qm.layer(l).net_layer);
        qm.flip(loc);
      }
    }
    for (usize i = 0; i <= net.layer_count(); ++i) {
      EXPECT_TRUE(bitwise_equal(slot(i), snapshot[i])) << arch << " activation slot " << i;
    }

    m->zero_grad();
    fresh->zero_grad();
    EXPECT_EQ(m->loss_and_grad_incremental(x, y).loss, fresh->loss_and_grad(x, y).loss)
        << arch;
    auto got = m->params();
    auto want = fresh->params();
    ASSERT_EQ(got.size(), want.size());
    for (usize i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(*got[i].grad, *want[i].grad)) << arch << " grad " << got[i].name;
    }
  }
}

TEST(ForwardFrom, MatchesMaterializedPathAcrossRandomFlips) {
  // Out-of-order flip/unflip sequences ride forward_from over a deliberately
  // dirty cache, and the diff-aware restore lands back on a snapshot. Every
  // probe must be byte-identical to a full forward_cached of a twin rebuilt
  // from the same codes by a full materialize() pass.
  sys::Rng rng(51);
  auto model = make_conv_dense(rng);
  sys::Rng xrng(52);
  const Tensor x = random_input(3, xrng);
  quant::QuantizedModel qm(*model);
  auto rebuilt_forward = [&] {
    sys::Rng twin_rng(51);
    auto twin = make_conv_dense(twin_rng);
    quant::QuantizedModel twin_qm(*twin);
    for (usize l = 0; l < twin_qm.num_layers(); ++l) twin_qm.layer(l).q = qm.layer(l).q;
    twin_qm.materialize();
    Tensor logits = twin->forward_cached(x);
    return logits;
  };
  const auto clean = qm.snapshot();
  const Tensor clean_logits = model->forward_cached(x);
  EXPECT_TRUE(bitwise_equal(clean_logits, rebuilt_forward()));

  sys::Rng order(53);
  for (int probe = 0; probe < 16; ++probe) {
    const usize l = order.uniform(qm.num_layers());
    const quant::BitLocation loc{l, order.uniform(qm.layer(l).size()),
                                 static_cast<u32>(order.uniform(8))};
    qm.flip(loc);
    const Tensor probed = model->forward_from(qm.layer(l).net_layer);
    EXPECT_TRUE(bitwise_equal(probed, rebuilt_forward())) << "probe " << probe << " layer " << l;
    if (probe % 3 != 0) qm.flip(loc);  // leave some flips committed, unflip the rest
  }
  // Restore-to-snapshot rewrites only the committed codes and invalidates
  // from the earliest one; re-forwarding from the frontier must land on
  // the clean logits again.
  ASSERT_GT(qm.hamming_distance(clean), 0u);
  qm.restore(clean);
  const Tensor restored = model->forward_from(model->net().layer_count());
  EXPECT_TRUE(bitwise_equal(restored, clean_logits));
  EXPECT_TRUE(bitwise_equal(restored, rebuilt_forward()));
}

TEST(IncrementalEval, MatchesFullEvaluationAfterFlipBursts) {
  // evaluate_batch_incremental must equal a from-scratch evaluate_batch after
  // arbitrary committed flips (same batch -> frontier reuse), and fall back
  // to a full forward transparently when the batch changes between calls.
  sys::Rng rng_a(56), rng_b(56);
  auto probed = make_conv_dense(rng_a);
  auto twin = make_conv_dense(rng_b);
  sys::Rng xrng(57);
  const Tensor x = random_input(4, xrng);
  const Tensor other = random_input(4, xrng);
  const std::vector<u32> y{0, 2, 1, 3};
  quant::QuantizedModel qm(*probed);
  quant::QuantizedModel qm_twin(*twin);

  sys::Rng order(58);
  for (int burst = 0; burst < 6; ++burst) {
    for (int f = 0; f < 3; ++f) {
      const usize l = order.uniform(qm.num_layers());
      const quant::BitLocation loc{l, order.uniform(qm.layer(l).size()),
                                   static_cast<u32>(order.uniform(8))};
      qm.flip(loc);
      qm_twin.flip(loc);
    }
    const BatchEval inc = probed->evaluate_batch_incremental(x, y);
    const BatchEval full = twin->evaluate_batch(x, y);
    EXPECT_EQ(inc.loss, full.loss) << "burst " << burst;
    EXPECT_EQ(inc.accuracy, full.accuracy) << "burst " << burst;
    if (burst % 2 == 1) {
      // Interleave an evaluation on a different batch: the next incremental
      // call sees a foreign cache and must take the full-forward fallback.
      const BatchEval inc_other = probed->evaluate_batch_incremental(other, y);
      const BatchEval full_other = twin->evaluate_batch(other, y);
      EXPECT_EQ(inc_other.loss, full_other.loss);
    }
  }
}

TEST(IncrementalEval, LossAndGradMatchesFullBitwise) {
  // loss_and_grad_incremental re-forwards only the stale suffix; the loss AND
  // every accumulated gradient buffer must be byte-identical to the
  // full-forward loss_and_grad of an identical twin.
  sys::Rng rng_a(59), rng_b(59);
  auto probed = make_conv_dense(rng_a);
  auto twin = make_conv_dense(rng_b);
  sys::Rng xrng(60);
  const Tensor x = random_input(3, xrng);
  const std::vector<u32> y{1, 3, 0};
  quant::QuantizedModel qm(*probed);
  quant::QuantizedModel qm_twin(*twin);

  // Prime the cache, then commit a flip and compare a full BFA-style
  // gradient pass.
  probed->zero_grad();
  probed->loss_and_grad_incremental(x, y);
  sys::Rng order(61);
  for (int step = 0; step < 5; ++step) {
    const usize l = order.uniform(qm.num_layers());
    const quant::BitLocation loc{l, order.uniform(qm.layer(l).size()),
                                 static_cast<u32>(order.uniform(8))};
    qm.flip(loc);
    qm_twin.flip(loc);
    probed->zero_grad();
    twin->zero_grad();
    const double li = probed->loss_and_grad_incremental(x, y).loss;
    const double lf = twin->loss_and_grad(x, y).loss;
    EXPECT_EQ(li, lf) << "step " << step;
    auto pp = probed->params();
    auto tp = twin->params();
    ASSERT_EQ(pp.size(), tp.size());
    for (usize i = 0; i < pp.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(*pp[i].grad, *tp[i].grad))
          << "grad " << pp[i].name << " step " << step;
    }
  }
}

TEST(Engine, LogitsAndGradientsByteIdenticalAtEveryTeamSize) {
  // Whole-model sweep over GEMM team sizes on shapes big enough to cross the
  // parallel work threshold: forward logits and backward gradients must be
  // byte-identical to the serial run (threading partitions outputs only).
  ThreadsGuard guard;
  const usize hw = std::max<usize>(1, std::thread::hardware_concurrency());
  auto make = [] { return models::make_by_name("vgg11", 10, /*seed=*/3); };
  sys::Rng xrng(62);
  Tensor x({8, 3, 12, 12});
  for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(xrng.normal(0.0, 1.0));
  const std::vector<u32> y{0, 1, 2, 3, 4, 5, 6, 7};

  gemm::set_threads(1);
  auto serial = make();
  serial->zero_grad();
  const double serial_loss = serial->loss_and_grad(x, y).loss;
  const Tensor serial_logits = serial->forward_cached(x);
  auto serial_params = serial->params();

  for (const usize teams : {usize{2}, usize{4}, hw}) {
    gemm::set_threads(teams);
    auto threaded = make();
    threaded->zero_grad();
    const double loss = threaded->loss_and_grad(x, y).loss;
    EXPECT_EQ(loss, serial_loss) << "teams=" << teams;
    EXPECT_TRUE(bitwise_equal(threaded->forward_cached(x), serial_logits))
        << "teams=" << teams;
    auto params = threaded->params();
    ASSERT_EQ(params.size(), serial_params.size());
    for (usize i = 0; i < params.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(*params[i].grad, *serial_params[i].grad))
          << "teams=" << teams << " grad " << params[i].name;
    }
  }
}

TEST(Workspace, ZeroAllocSteadyStateUnderThreadedProbes) {
  // The threaded arena invariant: once per-team-slot scratch is warm, probe
  // loops at a fixed team size grow nothing -- alloc events and total float
  // capacity both stay flat, in the clean and in the probe workspace.
  ThreadsGuard guard;
  gemm::set_threads(4);
  auto m = models::make_by_name("vgg11", 10, /*seed=*/4);
  sys::Rng rng(63);
  Tensor x({8, 3, 12, 12});
  for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.normal(0.0, 1.0));
  const std::vector<u32> y{0, 1, 2, 3, 4, 5, 6, 7};
  quant::QuantizedModel qm(*m);

  auto probe_round = [&] {
    m->zero_grad();
    m->loss_and_grad_incremental(x, y);
    for (usize l = 0; l < qm.num_layers(); ++l) {
      qm.flip({l, 1, 7});
      m->forward_from(qm.layer(l).net_layer);
      qm.flip({l, 1, 7});
      qm.probe({l, 2, 7});
    }
    m->evaluate_batch_incremental(x, y);
  };
  probe_round();
  probe_round();  // second pass: every slot/buffer sized for the worst case
  const usize warm = m->workspace().alloc_events();
  const usize warm_capacity = m->workspace().slot_capacity();
  const usize warm_probe = m->probe_workspace().alloc_events();
  const usize warm_probe_capacity = m->probe_workspace().slot_capacity();
  for (int iter = 0; iter < 4; ++iter) probe_round();
  EXPECT_EQ(m->workspace().alloc_events(), warm)
      << "threaded steady-state probes grew the workspace arena";
  EXPECT_EQ(m->workspace().slot_capacity(), warm_capacity)
      << "threaded steady-state probes reallocated arena storage";
  EXPECT_EQ(m->probe_workspace().alloc_events(), warm_probe)
      << "threaded steady-state probes grew the probe workspace";
  EXPECT_EQ(m->probe_workspace().slot_capacity(), warm_probe_capacity)
      << "threaded steady-state probes reallocated probe workspace storage";
}

TEST(Workspace, ZeroAllocSteadyStateThreadedTrainingCycle) {
  // The backward lowering's gathers, transposed operands and packed panels
  // live in the arena too: at a fixed team size, full loss_and_grad cycles
  // grow nothing once warm -- on vgg11 and on resnet20, whose stride-2
  // convolutions and 1x1 projections take the strided gathers.
  ThreadsGuard guard;
  gemm::set_threads(4);
  for (const char* arch : {"vgg11", "resnet20"}) {
    auto m = models::make_by_name(arch, 10, /*seed=*/5);
    sys::Rng rng(64);
    Tensor x({8, 3, 12, 12});
    for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.normal(0.0, 1.0));
    const std::vector<u32> y{0, 1, 2, 3, 4, 5, 6, 7};
    auto cycle = [&] {
      m->zero_grad();
      m->loss_and_grad(x, y);
    };
    cycle();
    cycle();
    const usize warm = m->workspace().alloc_events();
    const usize warm_capacity = m->workspace().slot_capacity();
    for (int iter = 0; iter < 4; ++iter) cycle();
    EXPECT_EQ(m->workspace().alloc_events(), warm)
        << arch << ": threaded steady-state training grew the workspace arena";
    EXPECT_EQ(m->workspace().slot_capacity(), warm_capacity)
        << arch << ": threaded steady-state training reallocated arena storage";
  }
}

TEST(Workspace, LayersKeepNoForwardState) {
  // A layer's backward reads only the workspace its forward ran in. Forwarding
  // another batch through the same net into a second workspace, between the
  // forward and the backward, must leave the gradients byte-identical to an
  // uninterrupted forward + backward. Train mode, so BatchNorm normalises
  // with batch statistics that differ between the two batches.
  for (const char* arch : {"vgg11", "resnet20"}) {
    sys::Rng rng(66);
    Tensor a({4, 3, 12, 12}), b({4, 3, 12, 12});
    for (usize i = 0; i < a.size(); ++i) a[i] = static_cast<float>(rng.normal(0.0, 1.0));
    for (usize i = 0; i < b.size(); ++i) b[i] = static_cast<float>(rng.normal(0.5, 2.0));
    const std::vector<u32> y{0, 1, 2, 3};

    auto fresh = models::make_by_name(arch, 10, /*seed=*/6);
    fresh->zero_grad();
    fresh->loss_and_grad(a, y, /*train_mode=*/true);

    auto m = models::make_by_name(arch, 10, /*seed=*/6);
    m->zero_grad();
    LossResult ce;
    softmax_cross_entropy_into(m->forward_cached(a, /*train=*/true), y, ce);
    Workspace other;
    m->net().forward_cached(b, /*train=*/true, other);
    m->backward(ce.dlogits);

    auto got = m->params();
    auto want = fresh->params();
    ASSERT_EQ(got.size(), want.size());
    for (usize i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(*got[i].grad, *want[i].grad))
          << arch << " grad " << got[i].name;
    }
  }
}

TEST(ModelState, LoadStateUnderQuantizedModelReadsRestoredWeights) {
  // Direct weight mutation bypassing the QuantizedModel (Model::load_state)
  // invalidates the cache, so both the plain forward and the incremental
  // evaluation honor the restored float weights.
  sys::Rng rng(64);
  auto m = make_conv_dense(rng);
  sys::Rng xrng(65);
  const Tensor x = random_input(2, xrng);
  const std::vector<u32> y{1, 0};
  const auto clean = m->save_state();
  const Tensor clean_logits = m->forward_cached(x);
  const double clean_loss = m->evaluate_batch(x, y).loss;

  quant::QuantizedModel qm(*m);  // quantizes the weights
  m->evaluate_batch_incremental(x, y);  // cache now holds quantized activations
  m->load_state(clean);
  EXPECT_TRUE(bitwise_equal(m->forward_cached(x), clean_logits))
      << "forward read the quantized weights after load_state";
  EXPECT_EQ(m->evaluate_batch_incremental(x, y).loss, clean_loss)
      << "incremental evaluation reused a stale cache after load_state";
}

TEST(ForwardFrom, WorksOnResNetBlocks) {
  // Residual blocks nest Sequentials inside the top-level net; a flip inside
  // a block must map to the block's top-level index.
  auto m = models::make_resnet20_sub(4, 11);
  sys::Rng rng(48);
  Tensor x({2, 3, 8, 8});
  for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.normal(0.0, 1.0));
  quant::QuantizedModel qm(*m);

  for (usize l = 0; l < qm.num_layers(); l += 3) {
    m->forward_cached(x);
    qm.flip({l, qm.layer(l).size() / 3, 5});
    const Tensor incremental = m->forward_from(qm.layer(l).net_layer);
    const Tensor full = m->forward_cached(x);
    EXPECT_TRUE(bitwise_equal(incremental, full)) << "quant layer " << l;
    qm.flip({l, qm.layer(l).size() / 3, 5});
  }
}

}  // namespace
}  // namespace dnnd::nn
