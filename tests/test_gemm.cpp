// Kernel-equivalence property tests: the GEMM-lowered engine path must be
// bitwise identical to the retained naive reference kernels, across
// randomized shapes including odd sizes, stride/padding edges, and batch 1/N
// -- for the forward passes and for the GEMM-lowered Dense/Conv2d backward.
// The threaded kernel must in turn be byte-identical to the serial one for
// every team size (row-chunk and panel-chunk partitions both).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "nn/reference.hpp"
#include "nn/simd.hpp"
#include "nn/workspace.hpp"
#include "test_util.hpp"

namespace dnnd::nn {
namespace {

using testutil::SimdGuard;
using testutil::ThreadsGuard;

void fill_random(Tensor& t, sys::Rng& rng) {
  for (usize i = 0; i < t.size(); ++i) t[i] = static_cast<float>(rng.normal(0.0, 1.0));
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << ": engine and naive outputs differ bitwise";
}

/// The float GEMM as the layers call it: B (N rows of K, leading dim ldb)
/// packed once, then gemm_nt_prepacked into C[m*crs + n*ccs].
void gemm_packed(usize M, usize N, usize K, const float* A, usize lda, const float* B,
                 usize ldb, float* C, usize crs, usize ccs, const float* bias,
                 gemm::Bias kind) {
  std::vector<float> packed(gemm::packed_b_size(N, K));
  gemm::pack_b(B, ldb, N, K, packed.data());
  gemm::gemm_nt_prepacked(M, N, K, A, lda, packed.data(), C, crs, ccs, bias, kind);
}

TEST(Gemm, MatchesNaiveDotProduct) {
  sys::Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    const usize M = 1 + rng.uniform(20), N = 1 + rng.uniform(33), K = 1 + rng.uniform(70);
    Tensor a({M, K}), b({N, K}), bias({N});
    fill_random(a, rng);
    fill_random(b, rng);
    fill_random(bias, rng);
    Tensor c({M, N}), ref({M, N});
    gemm_packed(M, N, K, a.data(), K, b.data(), K, c.data(), N, 1, bias.data(),
                gemm::Bias::kPerCol);
    for (usize m = 0; m < M; ++m) {
      for (usize n = 0; n < N; ++n) {
        float acc = bias[n];
        for (usize k = 0; k < K; ++k) acc += a[m * K + k] * b[n * K + k];
        ref.at2(m, n) = acc;
      }
    }
    expect_bitwise_equal(c, ref, "gemm trial " + std::to_string(trial));
  }
}

TEST(Gemm, DenseForwardMatchesReference) {
  sys::Rng rng(102);
  for (int trial = 0; trial < 40; ++trial) {
    const usize in = 1 + rng.uniform(40);
    const usize out = 1 + rng.uniform(24);  // crosses the 8-wide panel boundary
    const usize n = trial % 2 == 0 ? 1 : 2 + rng.uniform(5);
    Dense d(in, out, rng);
    Tensor x({n, in});
    fill_random(x, rng);
    fill_random(d.bias, rng);
    const Tensor y = d.forward(x, /*train=*/false);
    Tensor ref({n, out});
    reference::dense_forward(x, d.weight, d.bias, ref);
    expect_bitwise_equal(y, ref, "dense trial " + std::to_string(trial));
  }
}

TEST(Gemm, Conv2dForwardMatchesReference) {
  sys::Rng rng(103);
  for (int trial = 0; trial < 60; ++trial) {
    const usize in_ch = 1 + rng.uniform(4);
    const usize out_ch = 1 + rng.uniform(10);
    const usize k = 1 + rng.uniform(3);       // 1..3
    const usize stride = 1 + rng.uniform(2);  // 1..2
    const usize pad = rng.uniform(k + 1);     // 0..k (includes over-padding edges)
    // Odd and even spatial sizes; must keep at least one output pixel.
    usize h = 3 + rng.uniform(8), w = 3 + rng.uniform(8);
    if (h + 2 * pad < k) h = k;
    if (w + 2 * pad < k) w = k;
    const usize n = trial % 3 == 0 ? 1 : 2 + rng.uniform(3);
    Conv2d c(in_ch, out_ch, k, stride, pad, rng);
    fill_random(c.bias, rng);
    Tensor x({n, in_ch, h, w});
    fill_random(x, rng);
    // Non-finite inputs: the padded taps the GEMM adds as +0 or -0 must not
    // disturb an inf or NaN accumulator, and every term must meet the same
    // operands in the same order as in the naive loops.
    if (trial % 2 == 1) {
      x[rng.uniform(x.size())] = std::numeric_limits<float>::infinity();
      x[rng.uniform(x.size())] = -std::numeric_limits<float>::infinity();
      x[rng.uniform(x.size())] = std::numeric_limits<float>::quiet_NaN();
    }
    const Tensor y = c.forward(x, /*train=*/false);
    Tensor ref(y.shape());
    reference::conv2d_forward(x, c.weight, c.bias, stride, pad, ref);
    expect_bitwise_equal(y, ref,
                         "conv trial " + std::to_string(trial) + " k=" + std::to_string(k) +
                             " s=" + std::to_string(stride) + " p=" + std::to_string(pad));
  }
}

TEST(Gemm, ThreadedMatchesSerialByteExactOverRandomShapes) {
  // Shapes randomized across both partition regimes: M >= team (row chunks)
  // and M < team (panel chunks), ragged against the 8-wide tile in all of
  // M/N/K, and sizes straddling the parallel work threshold (below it the
  // kernel must fall back to serial -- identical either way).
  ThreadsGuard guard;
  sys::Rng rng(105);
  const usize hw = std::max<usize>(1, std::thread::hardware_concurrency());
  for (int trial = 0; trial < 25; ++trial) {
    usize M, N, K;
    if (trial % 3 == 0) {
      M = 1 + rng.uniform(3);           // fewer rows than any team: panel split
      N = 24 + rng.uniform(80);
      K = 128 + rng.uniform(256);
    } else {
      M = 9 + rng.uniform(120);         // row split, ragged vs the 8-row tile
      N = 1 + rng.uniform(40);
      K = 16 + rng.uniform(96);
    }
    Tensor a({M, K}), b({N, K}), bias({N});
    fill_random(a, rng);
    fill_random(b, rng);
    fill_random(bias, rng);
    const gemm::Bias kind = trial % 4 == 0 ? gemm::Bias::kNone : gemm::Bias::kPerCol;

    Tensor serial({M, N});
    gemm::set_threads(1);
    gemm_packed(M, N, K, a.data(), K, b.data(), K, serial.data(), N, 1, bias.data(), kind);

    for (const usize teams : {usize{2}, usize{4}, hw}) {
      Tensor threaded({M, N});
      threaded.fill(-999.0f);  // stale sentinel: every element must be written
      gemm::set_threads(teams);
      gemm_packed(M, N, K, a.data(), K, b.data(), K, threaded.data(), N, 1, bias.data(),
                  kind);
      expect_bitwise_equal(threaded, serial,
                           "trial " + std::to_string(trial) + " teams=" +
                               std::to_string(teams) + " M=" + std::to_string(M) + " N=" +
                               std::to_string(N) + " K=" + std::to_string(K));
    }

    // And against the naive triple loop, closing the serial==threaded==naive
    // triangle.
    Tensor ref({M, N});
    for (usize m = 0; m < M; ++m) {
      for (usize nn = 0; nn < N; ++nn) {
        float acc = kind == gemm::Bias::kPerCol ? bias[nn] : 0.0f;
        for (usize k = 0; k < K; ++k) acc += a[m * K + k] * b[nn * K + k];
        ref.at2(m, nn) = acc;
      }
    }
    expect_bitwise_equal(serial, ref, "vs naive, trial " + std::to_string(trial));
  }
}

TEST(Gemm, ThreadedConvAndDenseForwardMatchSerial) {
  // Layer-level check: Conv2d's sample-parallel path (per-team-slot col
  // buffers) and Dense's row-split GEMM, big enough to clear the parallel
  // work threshold, against the serial engine and the naive reference.
  ThreadsGuard guard;
  sys::Rng rng(106);
  const usize hw = std::max<usize>(1, std::thread::hardware_concurrency());
  Conv2d conv(4, 9, 3, 1, 1, rng);
  Dense dense(200, 37, rng);
  fill_random(conv.bias, rng);
  fill_random(dense.bias, rng);
  Tensor xc({10, 4, 12, 12}), xd({10, 200});
  fill_random(xc, rng);
  fill_random(xd, rng);

  gemm::set_threads(1);
  const Tensor conv_serial = conv.forward(xc, false);
  const Tensor dense_serial = dense.forward(xd, false);
  Tensor conv_ref(conv_serial.shape()), dense_ref(dense_serial.shape());
  reference::conv2d_forward(xc, conv.weight, conv.bias, 1, 1, conv_ref);
  reference::dense_forward(xd, dense.weight, dense.bias, dense_ref);
  expect_bitwise_equal(conv_serial, conv_ref, "conv serial vs naive");
  expect_bitwise_equal(dense_serial, dense_ref, "dense serial vs naive");

  for (const usize teams : {usize{2}, usize{3}, usize{4}, hw}) {
    gemm::set_threads(teams);
    const Tensor conv_t = conv.forward(xc, false);
    const Tensor dense_t = dense.forward(xd, false);
    expect_bitwise_equal(conv_t, conv_serial, "conv teams=" + std::to_string(teams));
    expect_bitwise_equal(dense_t, dense_serial, "dense teams=" + std::to_string(teams));
  }
}

TEST(Gemm, SimdMatchesForcedScalarByteExactOverRandomShapes) {
  // The tentpole invariant: the explicit SIMD register tiles (AVX2/NEON,
  // lane-per-output-column, non-contracted mul+add) must be byte-identical
  // to the forced-scalar microkernels over randomized ragged shapes. On a
  // host without a vector ISA both legs resolve to scalar and the sweep
  // degenerates to a tautology -- which is exactly the CI forced-scalar
  // leg's behavior, so that is fine.
  SimdGuard guard;
  sys::Rng rng(108);
  for (int trial = 0; trial < 40; ++trial) {
    const usize M = 1 + rng.uniform(40), N = 1 + rng.uniform(40), K = 1 + rng.uniform(200);
    Tensor a({M, K}), b({N, K}), bias({N});
    fill_random(a, rng);
    fill_random(b, rng);
    fill_random(bias, rng);
    const gemm::Bias kind = trial % 4 == 0 ? gemm::Bias::kNone : gemm::Bias::kPerCol;

    simd::set_scalar_override(1);
    ASSERT_EQ(simd::active_isa(), simd::Isa::kScalar);
    Tensor scalar({M, N});
    gemm_packed(M, N, K, a.data(), K, b.data(), K, scalar.data(), N, 1, bias.data(), kind);

    simd::set_scalar_override(0);
    ASSERT_EQ(simd::active_isa(), simd::best_isa());
    Tensor vectored({M, N});
    vectored.fill(-999.0f);  // stale sentinel: every element must be written
    gemm_packed(M, N, K, a.data(), K, b.data(), K, vectored.data(), N, 1, bias.data(), kind);

    expect_bitwise_equal(vectored, scalar,
                         std::string("simd (") + simd::isa_name(simd::best_isa()) +
                             ") trial " + std::to_string(trial) + " M=" + std::to_string(M) +
                             " N=" + std::to_string(N) + " K=" + std::to_string(K));
  }
}

TEST(Gemm, SimdThreadsMatrixMatchesScalarSerial) {
  // The CI matrix in miniature: {scalar, simd} x {1, 4} teams all produce
  // the same bytes as scalar serial, through a whole layer forward.
  SimdGuard simd_guard;
  ThreadsGuard threads_guard;
  sys::Rng rng(109);
  Dense dense(300, 41, rng);
  fill_random(dense.bias, rng);
  Tensor x({12, 300});
  fill_random(x, rng);

  simd::set_scalar_override(1);
  gemm::set_threads(1);
  const Tensor golden = dense.forward(x, false);

  for (const int scalar : {1, 0}) {
    for (const usize teams : {usize{1}, usize{4}}) {
      simd::set_scalar_override(scalar);
      gemm::set_threads(teams);
      const Tensor y = dense.forward(x, false);
      expect_bitwise_equal(y, golden,
                           "scalar_override=" + std::to_string(scalar) +
                               " teams=" + std::to_string(teams));
    }
  }
}

TEST(Gemm, ThreadedIm2colGatherMatchesSerialByteExact) {
  // Single-sample convolution big enough to clear the parallel-work
  // threshold: the batch cannot be split, so the sample's planes are spread
  // serially and its GEMM partitions its output rows across the pool, every
  // team slot reading the planes through the same shared offset tables.
  // Output must be byte-identical to serial and to the naive reference.
  ThreadsGuard guard;
  sys::Rng rng(111);
  Conv2d conv(8, 9, 3, 1, 1, rng);
  fill_random(conv.bias, rng);
  Tensor x({1, 8, 64, 64});  // P = 4096 patches, K = 72: P*K well past the threshold
  fill_random(x, rng);

  gemm::set_threads(1);
  const Tensor serial = conv.forward(x, false);
  Tensor ref(serial.shape());
  reference::conv2d_forward(x, conv.weight, conv.bias, 1, 1, ref);
  expect_bitwise_equal(serial, ref, "serial conv vs naive");

  const usize hw = std::max<usize>(1, std::thread::hardware_concurrency());
  for (const usize teams : {usize{2}, usize{4}, hw}) {
    gemm::set_threads(teams);
    const Tensor threaded = conv.forward(x, false);
    expect_bitwise_equal(threaded, serial, "gather teams=" + std::to_string(teams));
  }
}

TEST(Gemm, AutoThreadsFollowsEnvChangesMidProcess) {
  // Regression for the once-only static cache: with set_threads(0), a
  // mid-process DNND_THREADS change must be visible immediately, so the
  // campaign's budget-split restore and tests agree about the team size.
  ThreadsGuard guard;
  const char* orig = std::getenv("DNND_THREADS");
  const std::string saved = orig != nullptr ? orig : "";

  ASSERT_EQ(setenv("DNND_THREADS", "3", 1), 0);
  gemm::set_threads(0);
  EXPECT_EQ(gemm::threads(), 3u);
  ASSERT_EQ(setenv("DNND_THREADS", "5", 1), 0);
  EXPECT_EQ(gemm::threads(), 5u);
  ASSERT_EQ(unsetenv("DNND_THREADS"), 0);
  EXPECT_EQ(gemm::threads(),
            static_cast<usize>(std::max(1u, std::thread::hardware_concurrency())));
  // Garbage falls back to auto (with a stderr warning), never to a stale or
  // partial parse.
  ASSERT_EQ(setenv("DNND_THREADS", "4x", 1), 0);
  EXPECT_EQ(gemm::threads(),
            static_cast<usize>(std::max(1u, std::thread::hardware_concurrency())));

  if (orig != nullptr) {
    ASSERT_EQ(setenv("DNND_THREADS", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("DNND_THREADS"), 0);
  }
}

// ----- accumulate mode and the backward lowering ----------------------------

TEST(Gemm, AccumulateModeMatchesScalarOracle) {
  // Bias::kAccumulate: every accumulator starts at the current C element
  // (row- and column-strided C alike), so C += A B^T is one ascending-k
  // reduction per element -- also when the k range is split across calls.
  SimdGuard simd_guard;
  ThreadsGuard threads_guard;
  sys::Rng rng(112);
  for (int trial = 0; trial < 30; ++trial) {
    const usize M = 1 + rng.uniform(40), N = 1 + rng.uniform(40), K = 1 + rng.uniform(300);
    const bool col_major = trial % 2 == 1;
    const usize crs = col_major ? 1 : N, ccs = col_major ? M : 1;
    Tensor a({M, K}), b({N, K}), seed({M, N});
    fill_random(a, rng);
    fill_random(b, rng);
    fill_random(seed, rng);
    Tensor oracle = seed;
    for (usize m = 0; m < M; ++m) {
      for (usize n = 0; n < N; ++n) {
        float acc = oracle[m * crs + n * ccs];
        for (usize k = 0; k < K; ++k) acc += a[m * K + k] * b[n * K + k];
        oracle[m * crs + n * ccs] = acc;
      }
    }
    const std::string shape = " M=" + std::to_string(M) + " N=" + std::to_string(N) +
                              " K=" + std::to_string(K) + " trial " + std::to_string(trial);
    for (const int scalar : {1, 0}) {
      for (const usize teams : {usize{1}, usize{4}}) {
        simd::set_scalar_override(scalar);
        gemm::set_threads(teams);
        const std::string what =
            "scalar=" + std::to_string(scalar) + " teams=" + std::to_string(teams) + shape;
        Tensor c = seed;
        gemm_packed(M, N, K, a.data(), K, b.data(), K, c.data(), crs, ccs, nullptr,
                    gemm::Bias::kAccumulate);
        expect_bitwise_equal(c, oracle, "accumulate " + what);
        // The same reduction split into two accumulate calls.
        const usize k1 = K / 3;
        Tensor split = seed;
        gemm_packed(M, N, k1, a.data(), K, b.data(), K, split.data(), crs, ccs, nullptr,
                    gemm::Bias::kAccumulate);
        gemm_packed(M, N, K - k1, a.data() + k1, K, b.data() + k1, K, split.data(), crs, ccs,
                    nullptr, gemm::Bias::kAccumulate);
        expect_bitwise_equal(split, oracle, "split accumulate " + what);
      }
    }
  }
}

TEST(Gemm, OffsetTableMatchesGatheredOperand) {
  // gemm_nt_offsets reads A[m, k] = base[rows[m] + koff[k]]. Gathering that
  // operand explicitly and running gemm_nt_prepacked on it must give the
  // same bytes, for every start (bias kind), both C layouts (row stride 1
  // is the transposed store) and every {scalar, SIMD} x {1, 2, 4} teams
  // setting. The tables are random, so windows overlap and offsets repeat,
  // as Conv2d's do.
  SimdGuard simd_guard;
  ThreadsGuard threads_guard;
  sys::Rng rng(116);
  const gemm::Bias kinds[] = {gemm::Bias::kNone, gemm::Bias::kPerCol, gemm::Bias::kAccumulate};
  for (int trial = 0; trial < 36; ++trial) {
    const usize M = 1 + rng.uniform(70), N = 1 + rng.uniform(40), K = 1 + rng.uniform(260);
    const gemm::Bias kind = kinds[trial % 3];
    const bool col_major = (trial / 3) % 2 == 1;
    const usize crs = col_major ? 1 : N, ccs = col_major ? M : 1;
    const usize span = 1 + rng.uniform(4 * K + 64);
    Tensor base({2 * span}), b({N, K}), bias({N}), seed({M, N});
    fill_random(base, rng);
    fill_random(b, rng);
    fill_random(bias, rng);
    fill_random(seed, rng);
    std::vector<u32> rows(M), koff(K);
    for (u32& r : rows) r = static_cast<u32>(rng.uniform(span));
    for (u32& k : koff) k = static_cast<u32>(rng.uniform(span));
    Tensor a({M, K});
    for (usize m = 0; m < M; ++m) {
      for (usize k = 0; k < K; ++k) a[m * K + k] = base[rows[m] + koff[k]];
    }
    std::vector<float> packed(gemm::packed_b_size(N, K));
    gemm::pack_b(b.data(), K, N, K, packed.data());
    // Without accumulation every element must be written over a sentinel.
    if (kind != gemm::Bias::kAccumulate) seed.fill(-999.0f);

    simd::set_scalar_override(1);
    gemm::set_threads(1);
    Tensor golden = seed;
    gemm::gemm_nt_prepacked(M, N, K, a.data(), K, packed.data(), golden.data(), crs, ccs,
                            bias.data(), kind);
    const std::string shape = " M=" + std::to_string(M) + " N=" + std::to_string(N) +
                              " K=" + std::to_string(K) + " col_major=" +
                              std::to_string(col_major) + " trial " + std::to_string(trial);
    for (const int scalar : {1, 0}) {
      for (const usize teams : {usize{1}, usize{2}, usize{4}}) {
        simd::set_scalar_override(scalar);
        gemm::set_threads(teams);
        const std::string what =
            "scalar=" + std::to_string(scalar) + " teams=" + std::to_string(teams) + shape;
        Tensor gathered = seed, offsets = seed;
        gemm::gemm_nt_prepacked(M, N, K, a.data(), K, packed.data(), gathered.data(), crs, ccs,
                                bias.data(), kind);
        gemm::gemm_nt_offsets(M, N, K, base.data(), rows.data(), koff.data(), packed.data(),
                              offsets.data(), crs, ccs, bias.data(), kind);
        expect_bitwise_equal(gathered, golden, "gathered " + what);
        expect_bitwise_equal(offsets, golden, "offsets " + what);
      }
    }
  }
}

/// A gradient with the sparsity the engine really sees: exact +0 and -0
/// entries, whole ReLU-dead rows of `row` elements, normal values elsewhere.
void fill_sparse_grad(Tensor& dy, usize row, sys::Rng& rng) {
  for (usize i = 0; i < dy.size(); ++i) {
    const u64 pick = rng.uniform(8);
    dy[i] = pick == 0 ? 0.0f : pick == 1 ? -0.0f : static_cast<float>(rng.normal(0.0, 1.0));
  }
  for (usize s = 0; s + row <= dy.size(); s += row) {
    if (rng.uniform(4) == 0) std::fill(dy.data() + s, dy.data() + s + row, 0.0f);
  }
}

/// Runs `layer`'s backward from pre-seeded (non-zero) parameter gradients at
/// every {forced-scalar, SIMD} x {1, 4 teams} setting and compares dx,
/// dweight and dbias byte for byte with the reference results.
template <typename LayerT>
void expect_backward_matches(LayerT& layer, const Tensor& dy, const Tensor& seed_dw,
                             const Tensor& seed_db, const Tensor& ref_dx, const Tensor& ref_dw,
                             const Tensor& ref_db, const std::string& shape) {
  for (const int scalar : {1, 0}) {
    for (const usize teams : {usize{1}, usize{4}}) {
      simd::set_scalar_override(scalar);
      gemm::set_threads(teams);
      const std::string what =
          "scalar=" + std::to_string(scalar) + " teams=" + std::to_string(teams) + shape;
      layer.dweight = seed_dw;
      layer.dbias = seed_db;
      const Tensor dx = layer.backward(dy);
      expect_bitwise_equal(dx, ref_dx, "dx " + what);
      expect_bitwise_equal(layer.dweight, ref_dw, "dweight " + what);
      expect_bitwise_equal(layer.dbias, ref_db, "dbias " + what);
    }
  }
}

TEST(Gemm, DenseBackwardMatchesReference) {
  SimdGuard simd_guard;
  ThreadsGuard threads_guard;
  sys::Rng rng(113);
  for (int trial = 0; trial < 30; ++trial) {
    const usize in = 1 + rng.uniform(160);
    const usize out = 1 + rng.uniform(40);  // below 8 and ragged against the panel
    const usize n = trial % 3 == 0 ? 1 : 3 + 2 * rng.uniform(4);  // 1 or odd 3..9
    Dense d(in, out, rng);
    Tensor x({n, in});
    fill_random(x, rng);
    d.forward(x, /*train=*/true);
    Tensor dy({n, out});
    fill_sparse_grad(dy, out, rng);
    Tensor seed_dw(d.weight.shape()), seed_db({out});
    fill_random(seed_dw, rng);
    fill_random(seed_db, rng);
    Tensor ref_dx({n, in}), ref_dw = seed_dw, ref_db = seed_db;
    reference::dense_backward(dy, x, d.weight, ref_dx, ref_dw, ref_db);
    expect_backward_matches(d, dy, seed_dw, seed_db, ref_dx, ref_dw, ref_db,
                            " dense in=" + std::to_string(in) + " out=" +
                                std::to_string(out) + " n=" + std::to_string(n));
  }
}

TEST(Gemm, Conv2dBackwardMatchesReference) {
  // k in {3, 1, 2} (the zoo's kernels plus one that takes the generic
  // gather) x stride in {1, 2} x pad in {0, 1} (k=1 with pad 1 reads only
  // padding at the border), channel counts on both sides of 8, batch 1 and
  // odd batches, big enough in places to cross the threading threshold.
  SimdGuard simd_guard;
  ThreadsGuard threads_guard;
  sys::Rng rng(114);
  for (int trial = 0; trial < 48; ++trial) {
    const usize k = std::array<usize, 3>{3, 1, 2}[trial % 3];
    const usize stride = 1 + (trial / 3) % 2;
    const usize pad = (trial / 6) % 2;
    const usize in_ch = 1 + rng.uniform(13), out_ch = 1 + rng.uniform(13);
    const usize h = std::max<usize>(k, 1 + rng.uniform(11));
    const usize w = std::max<usize>(k, 1 + rng.uniform(11));
    const usize n = trial % 4 == 0 ? 1 : 3 + 2 * rng.uniform(3);  // 1 or odd 3..7
    Conv2d c(in_ch, out_ch, k, stride, pad, rng);
    Tensor x({n, in_ch, h, w});
    fill_random(x, rng);
    const Tensor y = c.forward(x, /*train=*/true);
    Tensor dy(y.shape());
    fill_sparse_grad(dy, y.dim(2) * y.dim(3), rng);
    Tensor seed_dw(c.weight.shape()), seed_db({out_ch});
    fill_random(seed_dw, rng);
    fill_random(seed_db, rng);
    Tensor ref_dx(x.shape()), ref_dw = seed_dw, ref_db = seed_db;
    reference::conv2d_backward(dy, x, c.weight, stride, pad, ref_dx, ref_dw, ref_db);
    expect_backward_matches(
        c, dy, seed_dw, seed_db, ref_dx, ref_dw, ref_db,
        " conv trial " + std::to_string(trial) + " ic=" + std::to_string(in_ch) +
            " oc=" + std::to_string(out_ch) + " k=" + std::to_string(k) + " s=" +
            std::to_string(stride) + " p=" + std::to_string(pad) + " h=" + std::to_string(h) +
            " w=" + std::to_string(w) + " n=" + std::to_string(n));
  }
}

TEST(Gemm, BackwardWithNonFiniteDyIsPinned) {
  // A diverged loss hands backward inf and NaN gradients. The naive loops
  // skipped only dy == 0 and padded taps, so Dense backward and Conv2d's dx
  // and dbias add exactly the reference's non-finite terms in the same
  // order: same bytes. Conv2d's dweight is the one documented difference.
  // The GEMM multiplies a padded tap's +0 by dy like any other entry, and
  // inf * 0 (or NaN * 0) is NaN where the reference skipped the term. Such an
  // element is NaN in the engine and finite in the reference. It is pinned
  // here against a scalar oracle of the GEMM semantics, i.e. the reference
  // loop with padded taps read as +0.
  SimdGuard simd_guard;
  ThreadsGuard threads_guard;
  sys::Rng rng(115);
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  auto poison = [&](Tensor& dy) {
    fill_sparse_grad(dy, 1, rng);
    dy[0] = kInf;
    dy[dy.size() / 2] = -kInf;
    dy[dy.size() - 1] = kNaN;
  };

  const usize n = 2, ic = 3, oc = 5, k = 3, h = 5, w = 5;
  Conv2d c(ic, oc, k, 1, 1, rng);
  Tensor x({n, ic, h, w});
  fill_random(x, rng);
  const Tensor y = c.forward(x, /*train=*/true);
  Tensor dy(y.shape());
  poison(dy);
  const Tensor zero_dw(c.weight.shape()), zero_db({oc});
  Tensor ref_dx(x.shape()), ref_dw = zero_dw, ref_db = zero_db;
  reference::conv2d_backward(dy, x, c.weight, 1, 1, ref_dx, ref_dw, ref_db);
  Tensor oracle_dw = zero_dw;
  for (usize b = 0; b < n; ++b) {
    for (usize o = 0; o < oc; ++o) {
      for (usize i = 0; i < h; ++i) {
        for (usize j = 0; j < w; ++j) {
          const float gy = dy.at4(b, o, i, j);
          for (usize kk = 0; kk < ic * k * k; ++kk) {
            const isize hi = static_cast<isize>(i + (kk / k) % k) - 1;
            const isize wj = static_cast<isize>(j + kk % k) - 1;
            const bool inside = hi >= 0 && hi < static_cast<isize>(h) && wj >= 0 &&
                                wj < static_cast<isize>(w);
            const float xv = inside ? x.at4(b, kk / (k * k), static_cast<usize>(hi),
                                            static_cast<usize>(wj))
                                    : 0.0f;
            oracle_dw[o * ic * k * k + kk] += gy * xv;
          }
        }
      }
    }
  }
  usize diverged = 0;
  for (usize i = 0; i < ref_dw.size(); ++i) {
    if (std::memcmp(&ref_dw[i], &oracle_dw[i], sizeof(float)) == 0) continue;
    EXPECT_TRUE(std::isnan(oracle_dw[i]) && std::isfinite(ref_dw[i])) << "dweight " << i;
    ++diverged;
  }
  EXPECT_GT(diverged, 0u) << "the poisoned border outputs should reach padded taps";
  expect_backward_matches(c, dy, zero_dw, zero_db, ref_dx, oracle_dw, ref_db,
                          " conv non-finite");

  Dense d(7, 4, rng);
  Tensor xd({3, 7});
  fill_random(xd, rng);
  d.forward(xd, /*train=*/true);
  Tensor dyd({3, 4});
  poison(dyd);
  const Tensor zero_ddw(d.weight.shape()), zero_ddb({4});
  Tensor ref_ddx({3, 7}), ref_ddw = zero_ddw, ref_ddb = zero_ddb;
  reference::dense_backward(dyd, xd, d.weight, ref_ddx, ref_ddw, ref_ddb);
  expect_backward_matches(d, dyd, zero_ddw, zero_ddb, ref_ddx, ref_ddw, ref_ddb,
                          " dense non-finite");
}

}  // namespace
}  // namespace dnnd::nn
