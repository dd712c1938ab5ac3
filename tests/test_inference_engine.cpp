// Inference-engine behaviour: incremental re-evaluation (forward_from) is
// bitwise identical to a full fresh forward for a flip in ANY layer and
// across arbitrary flip/unflip/restore sequences, the incremental
// evaluation helpers match their full-pass counterparts, results are
// byte-identical at every GEMM team size, and the workspace arena reaches a
// zero-allocation steady state -- serial and threaded.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

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
  // layers arbitrarily WITHOUT refreshing the cache between probes -- so the
  // clean-frontier restart path (recomputing from an earlier, still-clean
  // activation when a probe lands above the frontier) must keep every probe
  // equal to a from-scratch forward. A twin model with identical weights
  // provides the pristine reference; the probed model's cache is never
  // re-cleaned inside the loop.
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
  sys::Rng rng(47);
  auto m = make_conv_dense(rng);
  const Tensor x = random_input(2, rng);
  quant::QuantizedModel qm(*m);

  m->forward_cached(x);
  for (usize l = 0; l < qm.num_layers(); ++l) {
    qm.flip({l, 0, 7});
    m->forward_from(qm.layer(l).net_layer);
    qm.flip({l, 0, 7});
  }
  const usize warm = m->workspace().alloc_events();
  m->forward_cached(x);
  for (usize l = 0; l < qm.num_layers(); ++l) {
    qm.flip({l, 0, 7});
    m->forward_from(qm.layer(l).net_layer);
    qm.flip({l, 0, 7});
  }
  EXPECT_EQ(m->workspace().alloc_events(), warm);
}

TEST(FusedInt8, ProbeForwardMatchesMaterializedPathAcrossRandomFlips) {
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
  // from the earliest one; re-forwarding from the frontier must land on the
  // clean logits again.
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
  // capacity both stay flat.
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
    }
    m->evaluate_batch_incremental(x, y);
  };
  probe_round();
  probe_round();  // second pass: every slot/buffer sized for the worst case
  const usize warm = m->workspace().alloc_events();
  const usize warm_capacity = m->workspace().slot_capacity();
  for (int iter = 0; iter < 4; ++iter) probe_round();
  EXPECT_EQ(m->workspace().alloc_events(), warm)
      << "threaded steady-state probes grew the workspace arena";
  EXPECT_EQ(m->workspace().slot_capacity(), warm_capacity)
      << "threaded steady-state probes reallocated arena storage";
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

TEST(FusedInt8, LoadStateDropsResidentPanelsInsteadOfGoingStale) {
  // Direct weight mutation bypassing the QuantizedModel (Model::load_state)
  // must not leave inference reading a stale resident int8 panel: the guard
  // drops the panels and invalidates the cache, so both the plain forward
  // and the incremental evaluation honor the restored weights. The int8
  // regime is on, so a panel that survived would be used.
  testutil::SimdGuard guard;
  simd::set_int8_override(1);
  sys::Rng rng(64);
  auto m = make_conv_dense(rng);
  sys::Rng xrng(65);
  const Tensor x = random_input(2, xrng);
  const std::vector<u32> y{1, 0};
  const auto clean = m->save_state();
  const Tensor clean_logits = m->forward_cached(x);
  const double clean_loss = m->evaluate_batch(x, y).loss;

  quant::QuantizedModel qm(*m);  // attaches int8 panels, quantizes the weights
  m->evaluate_batch_incremental(x, y);  // cache now holds quantized activations
  m->load_state(clean);
  EXPECT_TRUE(bitwise_equal(m->forward_cached(x), clean_logits))
      << "forward read a stale resident panel after load_state";
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
