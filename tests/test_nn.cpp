#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "nn/dataset.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"

namespace dnnd::nn {
namespace {

// ---------------------------------------------------------------- Tensor ----

TEST(Tensor, ShapeAndSize) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.size(), 120u);
  EXPECT_EQ(t.rank(), 4u);
  EXPECT_EQ(t.dim(2), 4u);
  for (usize i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, At4RowMajorLayout) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 7.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  for (usize i = 0; i < 12; ++i) t[i] = static_cast<float>(i);
  Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.dim(0), 3u);
  for (usize i = 0; i < 12; ++i) EXPECT_EQ(r[i], static_cast<float>(i));
}

TEST(Tensor, Reductions) {
  Tensor t({4});
  t[0] = -3.0f;
  t[1] = 1.0f;
  t[2] = 2.0f;
  t[3] = 0.5f;
  EXPECT_FLOAT_EQ(t.min(), -3.0f);
  EXPECT_FLOAT_EQ(t.max(), 2.0f);
  EXPECT_FLOAT_EQ(t.abs_max(), 3.0f);
  EXPECT_DOUBLE_EQ(t.sum(), 0.5);
}

TEST(Tensor, HeNormalVariance) {
  sys::Rng rng(3);
  Tensor t = Tensor::he_normal({10000}, 50, rng);
  double var = 0.0;
  for (usize i = 0; i < t.size(); ++i) var += static_cast<double>(t[i]) * t[i];
  var /= static_cast<double>(t.size());
  EXPECT_NEAR(var, 2.0 / 50.0, 0.01);
}

// -------------------------------------------------- finite-difference util --

/// Checks layer gradients against central finite differences using the probe
/// loss L = sum(c .* y) for a fixed random projection c.
void check_gradients(Layer& layer, const std::vector<usize>& in_shape, u64 seed,
                     double tol = 2e-2) {
  sys::Rng rng(seed);
  Tensor x(in_shape);
  for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.normal(0.0, 1.0));

  Tensor y = layer.forward(x, /*train=*/true);
  Tensor c(y.shape());
  for (usize i = 0; i < c.size(); ++i) c[i] = static_cast<float>(rng.normal(0.0, 1.0));

  for (auto& p : layer.params()) p.grad->zero();
  Tensor dx = layer.backward(c);

  auto probe_loss = [&](Layer& l) {
    Tensor out = l.forward(x, /*train=*/true);
    double loss = 0.0;
    for (usize i = 0; i < out.size(); ++i) loss += static_cast<double>(c[i]) * out[i];
    return loss;
  };

  constexpr double kEps = 1e-3;
  // Input gradient, spot-checked on a stride (full check is O(n^2) forwards).
  const usize stride_x = std::max<usize>(1, x.size() / 24);
  for (usize i = 0; i < x.size(); i += stride_x) {
    const float saved = x[i];
    x[i] = saved + static_cast<float>(kEps);
    const double lp = probe_loss(layer);
    x[i] = saved - static_cast<float>(kEps);
    const double lm = probe_loss(layer);
    x[i] = saved;
    const double numeric = (lp - lm) / (2 * kEps);
    EXPECT_NEAR(dx[i], numeric, tol * std::max(1.0, std::fabs(numeric)))
        << "input grad mismatch at " << i;
  }
  // Parameter gradients (forward uses train=true so BN uses batch stats and
  // the analytic path matches the numeric probe).
  layer.forward(x, true);
  for (auto& p : layer.params()) p.grad->zero();
  layer.backward(c);
  for (auto& p : layer.params()) {
    const usize stride_w = std::max<usize>(1, p.value->size() / 16);
    for (usize i = 0; i < p.value->size(); i += stride_w) {
      const float saved = (*p.value)[i];
      (*p.value)[i] = saved + static_cast<float>(kEps);
      const double lp = probe_loss(layer);
      (*p.value)[i] = saved - static_cast<float>(kEps);
      const double lm = probe_loss(layer);
      (*p.value)[i] = saved;
      const double numeric = (lp - lm) / (2 * kEps);
      EXPECT_NEAR((*p.grad)[i], numeric, tol * std::max(1.0, std::fabs(numeric)))
          << "param " << p.name << " grad mismatch at " << i;
    }
  }
}

// ---------------------------------------------------------------- layers ----

TEST(Dense, ForwardKnownValues) {
  sys::Rng rng(1);
  Dense d(2, 2, rng);
  d.weight[0] = 1.0f;  // W = [[1,2],[3,4]]
  d.weight[1] = 2.0f;
  d.weight[2] = 3.0f;
  d.weight[3] = 4.0f;
  d.bias[0] = 0.5f;
  d.bias[1] = -0.5f;
  Tensor x({1, 2});
  x[0] = 1.0f;
  x[1] = -1.0f;
  Tensor y = d.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 1.0f - 2.0f + 0.5f);
  EXPECT_FLOAT_EQ(y[1], 3.0f - 4.0f - 0.5f);
}

TEST(Dense, GradientCheck) {
  sys::Rng rng(2);
  Dense d(5, 4, rng);
  check_gradients(d, {3, 5}, 20);
}

TEST(Conv2d, OutputShape) {
  sys::Rng rng(3);
  Conv2d c(3, 8, 3, 1, 1, rng);
  Tensor x({2, 3, 12, 12});
  Tensor y = c.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<usize>{2, 8, 12, 12}));
  Conv2d s(3, 4, 3, 2, 1, rng);
  EXPECT_EQ(s.forward(x, false).shape(), (std::vector<usize>{2, 4, 6, 6}));
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  sys::Rng rng(4);
  Conv2d c(1, 1, 3, 1, 1, rng);
  c.weight.zero();
  c.weight.at4(0, 0, 1, 1) = 1.0f;  // center tap
  c.bias.zero();
  Tensor x({1, 1, 4, 4});
  for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  Tensor y = c.forward(x, false);
  for (usize i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, GradientCheck) {
  sys::Rng rng(5);
  Conv2d c(2, 3, 3, 1, 1, rng);
  check_gradients(c, {2, 2, 5, 5}, 21);
}

TEST(Conv2d, GradientCheckStride2) {
  sys::Rng rng(6);
  Conv2d c(2, 2, 3, 2, 1, rng);
  check_gradients(c, {1, 2, 6, 6}, 22);
}

TEST(ReLU, ForwardBackwardMasks) {
  ReLU r;
  Tensor x({4});
  x[0] = -1.0f;
  x[1] = 2.0f;
  x[2] = 0.0f;
  x[3] = 3.0f;
  Tensor y = r.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  EXPECT_FLOAT_EQ(y[2], 0.0f);
  Tensor dy = Tensor::full({4}, 1.0f);
  Tensor dx = r.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 1.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
  EXPECT_FLOAT_EQ(dx[3], 1.0f);
}

// The relu mask on edge values: dx must equal dy * (y > 0 ? 1 : 0) bit for
// bit, so -0, denormals, inf and NaN in dy keep IEEE multiply semantics
// (a negative dy at a dead unit gives -0, inf or NaN gives NaN).
const float kEdgeDy[] = {0.0f,
                         -0.0f,
                         std::numeric_limits<float>::denorm_min(),
                         -std::numeric_limits<float>::denorm_min(),
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity(),
                         std::numeric_limits<float>::quiet_NaN(),
                         1.5f,
                         -2.25f};
const float kEdgeY[] = {0.0f, std::numeric_limits<float>::denorm_min(), 3.0f};

u32 bits_of(float v) {
  u32 bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// dy * (y > 0 ? 1 : 0) with the factor kept out of constant folding.
u32 masked_bits(float dy, float y) {
  volatile float mask = y > 0.0f ? 1.0f : 0.0f;
  return bits_of(dy * mask);
}

/// Fills `dy` and `y`, both of kEdgeDy x kEdgeY elements, with every pair.
void fill_edge_pairs(Tensor& dy, Tensor& y) {
  ASSERT_EQ(y.size(), std::size(kEdgeDy) * std::size(kEdgeY));
  for (usize i = 0; i < std::size(kEdgeDy); ++i) {
    for (usize j = 0; j < std::size(kEdgeY); ++j) {
      dy[i * std::size(kEdgeY) + j] = kEdgeDy[i];
      y[i * std::size(kEdgeY) + j] = kEdgeY[j];
    }
  }
}

TEST(ReLU, BackwardMaskIsExactOnEdgeValues) {
  Tensor x({std::size(kEdgeDy) * std::size(kEdgeY)}), dy(x.shape());
  fill_edge_pairs(dy, x);
  for (usize p = 0; p < x.size(); ++p) {
    if (x[p] == 0.0f) x[p] = -1.0f;  // relu(-1) = +0
  }
  ReLU r;
  const Tensor y = r.forward(x, false);
  const Tensor dx = r.backward(dy);
  for (usize p = 0; p < x.size(); ++p) {
    EXPECT_EQ(bits_of(dx[p]), masked_bits(dy[p], y[p])) << "dy " << dy[p] << ", y " << y[p];
  }
}

TEST(Residual, FinalReluMaskIsExactOnEdgeValues) {
  // The block's backward multiplies dy by the final relu's mask, taken from
  // the y it is given, into its kScratch slot 0 before the body and the
  // shortcut read it. A 3x3x3 identity block holds the 27 (dy, y) pairs.
  sys::Rng rng(12);
  ResidualBlock block(3, 3, 1, rng);
  Workspace ws;
  Tensor x({1, 3, 3, 3});
  for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.normal(0.0, 1.0));
  Tensor y_fwd;
  block.forward_into(x, y_fwd, /*train=*/false, ws);
  Tensor y(y_fwd.shape()), dy(y_fwd.shape()), dx;
  fill_edge_pairs(dy, y);
  block.backward_into(x, y, dy, &dx, ws);
  const Tensor& dsum = ws.slot(&block, Workspace::SlotKind::kScratch, 0);
  ASSERT_EQ(dsum.size(), y.size());
  for (usize p = 0; p < y.size(); ++p) {
    EXPECT_EQ(bits_of(dsum[p]), masked_bits(dy[p], y[p])) << "dy " << dy[p] << ", y " << y[p];
  }
}

TEST(MaxPool, ForwardPicksMaxAndRoutesGradient) {
  MaxPool2d p;
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 5.0f;
  x[2] = 3.0f;
  x[3] = 2.0f;
  Tensor y = p.forward(x, false);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  Tensor dy = Tensor::full({1, 1, 1, 1}, 2.0f);
  Tensor dx = p.backward(dy);
  EXPECT_FLOAT_EQ(dx[1], 2.0f);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
}

TEST(MaxPool, DeadWindowRoutesGradientIntoItsOwnWindow) {
  // A window with no element above -inf (all NaN, or all -inf) has no
  // strict-> winner. Its gradient goes to the window's own first element,
  // never to element 0 of the tensor.
  MaxPool2d p;
  Tensor x({2, 2, 4, 4});
  for (usize i = 0; i < x.size(); ++i) x[i] = 1.0f + static_cast<float>(i % 7);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float ninf = -std::numeric_limits<float>::infinity();
  for (usize di = 0; di < 2; ++di) {
    for (usize dj = 0; dj < 2; ++dj) {
      x.at4(1, 1, 2 + di, dj) = nan;       // window (b, ch, i, j) = (1, 1, 1, 0)
      x.at4(1, 0, di, 2 + dj) = ninf;      // window (1, 0, 0, 1)
    }
  }
  Tensor y = p.forward(x, false);
  EXPECT_EQ(y.at4(1, 1, 1, 0), ninf);
  EXPECT_EQ(y.at4(1, 0, 0, 1), ninf);
  Tensor dy(y.shape());
  for (usize i = 0; i < dy.size(); ++i) dy[i] = static_cast<float>(i + 1);
  Tensor dx = p.backward(dy);
  for (usize di = 0; di < 2; ++di) {
    for (usize dj = 0; dj < 2; ++dj) {
      const bool first = di == 0 && dj == 0;
      EXPECT_EQ(dx.at4(1, 1, 2 + di, dj), first ? dy.at4(1, 1, 1, 0) : 0.0f);
      EXPECT_EQ(dx.at4(1, 0, di, 2 + dj), first ? dy.at4(1, 0, 0, 1) : 0.0f);
    }
  }
  // Window 0's maximum is element 5, so element 0 receives nothing.
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[5], dy[0]);
  EXPECT_EQ(dx.sum(), dy.sum());
}

TEST(GlobalAvgPool, ForwardAndGradient) {
  GlobalAvgPool g;
  Tensor x({1, 2, 2, 2});
  for (usize i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  Tensor y = g.forward(x, false);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 5.5f);
  Tensor dy({1, 2});
  dy[0] = 4.0f;
  dy[1] = 8.0f;
  Tensor dx = g.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 1.0f);
  EXPECT_FLOAT_EQ(dx[7], 2.0f);
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  Tensor x({2, 3, 2, 2});
  for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  Tensor y = f.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<usize>{2, 12}));
  Tensor dx = f.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
  for (usize i = 0; i < x.size(); ++i) EXPECT_EQ(dx[i], x[i]);
}

TEST(BatchNorm, NormalizesBatchStatistics) {
  BatchNorm2d bn(2);
  sys::Rng rng(7);
  Tensor x({8, 2, 3, 3});
  for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.normal(3.0, 2.0));
  Tensor y = bn.forward(x, /*train=*/true);
  // Per-channel mean ~0, var ~1.
  const usize hw = 9;
  for (usize c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (usize n = 0; n < 8; ++n) {
      for (usize i = 0; i < hw; ++i) mean += y.data()[(n * 2 + c) * hw + i];
    }
    mean /= 72.0;
    for (usize n = 0; n < 8; ++n) {
      for (usize i = 0; i < hw; ++i) {
        const double d = y.data()[(n * 2 + c) * hw + i] - mean;
        var += d * d;
      }
    }
    var /= 72.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  Tensor x({4, 1, 2, 2});
  for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  for (int rep = 0; rep < 50; ++rep) bn.forward(x, true);  // converge running stats
  Tensor y_eval = bn.forward(x, false);
  Tensor y_train = bn.forward(x, true);
  for (usize i = 0; i < y_eval.size(); ++i) EXPECT_NEAR(y_eval[i], y_train[i], 0.05);
}

TEST(BatchNorm, GradientCheck) {
  BatchNorm2d bn(3);
  check_gradients(bn, {4, 3, 2, 2}, 23, 5e-2);
}

TEST(Residual, IdentityBlockShapes) {
  sys::Rng rng(8);
  ResidualBlock block(4, 4, 1, rng);
  Tensor x({2, 4, 6, 6});
  EXPECT_EQ(block.forward(x, true).shape(), x.shape());
}

TEST(Residual, ProjectionBlockDownsamples) {
  sys::Rng rng(9);
  ResidualBlock block(4, 8, 2, rng);
  Tensor x({2, 4, 6, 6});
  EXPECT_EQ(block.forward(x, true).shape(), (std::vector<usize>{2, 8, 3, 3}));
}

TEST(Residual, GradientCheckIdentity) {
  sys::Rng rng(10);
  ResidualBlock block(2, 2, 1, rng);
  check_gradients(block, {2, 2, 4, 4}, 24, 5e-2);
}

TEST(Residual, GradientCheckProjection) {
  sys::Rng rng(11);
  ResidualBlock block(2, 4, 2, rng);
  check_gradients(block, {2, 2, 4, 4}, 25, 5e-2);
}

// ------------------------------------------------------------------ loss ----

TEST(Loss, UniformLogitsGiveLogC) {
  Tensor logits({2, 4});
  const auto res = softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(res.loss, std::log(4.0), 1e-9);
}

TEST(Loss, GradientRowsSumToZero) {
  sys::Rng rng(12);
  Tensor logits({3, 5});
  for (usize i = 0; i < logits.size(); ++i) logits[i] = static_cast<float>(rng.normal());
  const auto res = softmax_cross_entropy(logits, {1, 4, 2});
  for (usize n = 0; n < 3; ++n) {
    double row = 0.0;
    for (usize c = 0; c < 5; ++c) row += res.dlogits.at2(n, c);
    EXPECT_NEAR(row, 0.0, 1e-6);
  }
}

TEST(Loss, GradientMatchesFiniteDifference) {
  sys::Rng rng(13);
  Tensor logits({2, 3});
  for (usize i = 0; i < logits.size(); ++i) logits[i] = static_cast<float>(rng.normal());
  const std::vector<u32> labels{2, 0};
  const auto res = softmax_cross_entropy(logits, labels);
  constexpr double kEps = 1e-4;
  for (usize i = 0; i < logits.size(); ++i) {
    const float saved = logits[i];
    logits[i] = saved + static_cast<float>(kEps);
    const double lp = softmax_cross_entropy_loss(logits, labels);
    logits[i] = saved - static_cast<float>(kEps);
    const double lm = softmax_cross_entropy_loss(logits, labels);
    logits[i] = saved;
    EXPECT_NEAR(res.dlogits[i], (lp - lm) / (2 * kEps), 1e-4);
  }
}

TEST(Loss, ArgmaxRows) {
  Tensor logits({2, 3});
  logits.at2(0, 1) = 5.0f;
  logits.at2(1, 2) = 3.0f;
  const auto pred = argmax_rows(logits);
  EXPECT_EQ(pred[0], 1u);
  EXPECT_EQ(pred[1], 2u);
}

TEST(Loss, PerClassEvalMatchesNaiveOracle) {
  sys::Rng rng(17);
  constexpr usize kRows = 32;
  constexpr usize kClasses = 5;
  Tensor logits({kRows, kClasses});
  std::vector<u32> labels(kRows);
  for (usize i = 0; i < logits.size(); ++i) logits[i] = static_cast<float>(rng.normal());
  for (usize n = 0; n < kRows; ++n) labels[n] = static_cast<u32>(rng.uniform(kClasses));

  constexpr u32 kSource = 2;
  constexpr u32 kTarget = 0;
  PerClassEval pce;
  evaluate_logits_per_class(logits, labels, kSource, kTarget, pce);

  // Overall loss/accuracy must agree exactly with the untargeted evaluator
  // (same single-logits-tensor contract).
  const BatchEval ev = evaluate_logits(logits, labels);
  EXPECT_DOUBLE_EQ(pce.loss, ev.loss);
  EXPECT_EQ(pce.rows, kRows);
  EXPECT_DOUBLE_EQ(pce.accuracy(), ev.accuracy);

  // Naive oracle: recount everything from argmax_rows.
  const auto pred = argmax_rows(logits);
  std::vector<usize> cls_correct(kClasses, 0);
  std::vector<usize> cls_total(kClasses, 0);
  usize src_rows = 0, src_to_tgt = 0, other_rows = 0, other_correct = 0;
  for (usize n = 0; n < kRows; ++n) {
    ++cls_total[labels[n]];
    if (pred[n] == labels[n]) ++cls_correct[labels[n]];
    if (labels[n] == kSource) {
      ++src_rows;
      src_to_tgt += pred[n] == kTarget;
    } else {
      ++other_rows;
      other_correct += pred[n] == labels[n];
    }
  }
  ASSERT_EQ(pce.class_total.size(), kClasses);
  for (usize c = 0; c < kClasses; ++c) {
    EXPECT_EQ(pce.class_total[c], cls_total[c]) << "class " << c;
    EXPECT_EQ(pce.class_correct[c], cls_correct[c]) << "class " << c;
  }
  EXPECT_EQ(pce.source_rows, src_rows);
  EXPECT_EQ(pce.source_to_target, src_to_tgt);
  EXPECT_EQ(pce.other_rows, other_rows);
  EXPECT_EQ(pce.other_correct, other_correct);
}

TEST(Loss, PerClassEvalAllSourcesTreatsEveryNonTargetRowAsSource) {
  Tensor logits({4, 3});
  // Rows predict: 1, 1, 0, 2.
  logits.at2(0, 1) = 3.0f;
  logits.at2(1, 1) = 3.0f;
  logits.at2(2, 0) = 3.0f;
  logits.at2(3, 2) = 3.0f;
  const std::vector<u32> labels{0, 1, 2, 2};
  PerClassEval pce;
  evaluate_logits_per_class(logits, labels, kAllSources, /*target=*/1, pce);
  // Sources are the rows whose TRUE label != target: rows 0, 2, 3.
  EXPECT_EQ(pce.source_rows, 3u);
  EXPECT_EQ(pce.source_to_target, 1u);  // only row 0 is predicted as class 1
  // The non-source rows are the true-target rows; row 1 is correct.
  EXPECT_EQ(pce.other_rows, 1u);
  EXPECT_EQ(pce.other_correct, 1u);
}

TEST(Loss, PerClassEvalArgmaxTieBreaksToFirstMax) {
  // All-equal logits: the first class wins, in both the untargeted and the
  // per-class evaluator (shared argmax) -- pinned so a refactor that flips
  // tie-breaking cannot silently shift ASR.
  Tensor logits({2, 3});
  const std::vector<u32> labels{0, 1};
  const auto pred = argmax_rows(logits);
  EXPECT_EQ(pred[0], 0u);
  EXPECT_EQ(pred[1], 0u);
  PerClassEval pce;
  evaluate_logits_per_class(logits, labels, /*source=*/1, /*target=*/0, pce);
  EXPECT_EQ(pce.correct, 1u);           // row 0 only
  EXPECT_EQ(pce.source_rows, 1u);       // row 1
  EXPECT_EQ(pce.source_to_target, 1u);  // tie-break sends row 1 to class 0
}

TEST(Loss, TargetedCrossEntropyGradientMatchesFiniteDifference) {
  sys::Rng rng(19);
  Tensor logits({3, 4});
  for (usize i = 0; i < logits.size(); ++i) logits[i] = static_cast<float>(rng.normal());
  const std::vector<u32> labels{2, 0, 1};
  constexpr u32 kSource = 2;
  constexpr u32 kTarget = 0;
  constexpr double kStealth = 0.7;
  Tensor dlogits;
  const double loss =
      targeted_cross_entropy(logits, labels, kSource, kTarget, kStealth, &dlogits);
  EXPECT_GT(loss, 0.0);
  // eps large enough that float-rounded logit perturbations stay accurate
  // (the per-group 1/n weights make gradient entries O(1), so 1e-4 eps left
  // ~1e-4 rounding noise in the quotient).
  constexpr double kEps = 1e-3;
  for (usize i = 0; i < logits.size(); ++i) {
    const float saved = logits[i];
    logits[i] = saved + static_cast<float>(kEps);
    const double lp = targeted_cross_entropy(logits, labels, kSource, kTarget, kStealth);
    logits[i] = saved - static_cast<float>(kEps);
    const double lm = targeted_cross_entropy(logits, labels, kSource, kTarget, kStealth);
    logits[i] = saved;
    EXPECT_NEAR(dlogits[i], (lp - lm) / (2 * kEps), 1e-3) << "logit " << i;
  }
}

// --------------------------------------------------------------- dataset ----

TEST(Dataset, DeterministicGeneration) {
  const auto a = make_synthetic(SynthSpec::cifar10_like());
  const auto b = make_synthetic(SynthSpec::cifar10_like());
  ASSERT_EQ(a.train.size(), b.train.size());
  for (usize i = 0; i < a.train.images.size(); i += 97) {
    EXPECT_EQ(a.train.images[i], b.train.images[i]);
  }
  EXPECT_EQ(a.train.labels, b.train.labels);
}

TEST(Dataset, HeadIsClassBalanced) {
  const auto data = make_synthetic(SynthSpec::cifar10_like());
  auto [x, y] = data.test.head(20);
  std::vector<int> counts(10, 0);
  for (u32 label : y) counts[label]++;
  for (int c : counts) EXPECT_EQ(c, 2);
}

TEST(Dataset, GatherCopiesRightSamples) {
  const auto data = make_synthetic(SynthSpec::cifar10_like());
  auto [x, y] = data.train.gather({5, 10});
  EXPECT_EQ(x.dim(0), 2u);
  EXPECT_EQ(y[0], data.train.labels[5]);
  EXPECT_EQ(y[1], data.train.labels[10]);
  const usize chw = x.size() / 2;
  for (usize i = 0; i < chw; i += 13) {
    EXPECT_EQ(x[i], data.train.images[5 * chw + i]);
  }
}

TEST(Dataset, SpecsShapeTheSet) {
  SynthSpec spec;
  spec.num_classes = 3;
  spec.train_per_class = 5;
  spec.test_per_class = 2;
  spec.channels = 1;
  spec.height = 6;
  spec.width = 6;
  const auto data = make_synthetic(spec);
  EXPECT_EQ(data.train.size(), 15u);
  EXPECT_EQ(data.test.size(), 6u);
  EXPECT_EQ(data.train.images.shape(), (std::vector<usize>{15, 1, 6, 6}));
}

// --------------------------------------------------- model/optim/trainer ----

TEST(Model, ParamEnumerationAndZeroGrad) {
  sys::Rng rng(14);
  Model m("t");
  m.add(std::make_unique<Dense>(4, 3, rng));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(3, 2, rng));
  const auto params = m.params();
  ASSERT_EQ(params.size(), 4u);  // 2x (weight, bias)
  EXPECT_TRUE(params[0].quantizable);
  EXPECT_FALSE(params[1].quantizable);
  EXPECT_EQ(m.weight_count(), 4u * 3u + 3u * 2u);
  // Gradients accumulate, zero_grad clears. Mixed-sign inputs keep the
  // hidden ReLU units alive for any init seed.
  Tensor x({2, 4});
  for (usize i = 0; i < x.size(); ++i) {
    x[i] = (i % 2 == 0 ? 1.0f : -1.0f) * (0.5f + 0.25f * static_cast<float>(i));
  }
  m.loss_and_grad(x, {0, 1});
  double gsum = 0.0;
  for (auto& p : m.params()) gsum += p.grad->l2_norm();
  EXPECT_GT(gsum, 0.0);
  m.zero_grad();
  for (auto& p : m.params()) EXPECT_DOUBLE_EQ(p.grad->sum(), 0.0);
}

TEST(Optimizer, ReducesLossOnToyProblem) {
  sys::Rng rng(15);
  Model m("toy");
  m.add(std::make_unique<Dense>(2, 8, rng));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(8, 2, rng));
  // XOR-ish separable data.
  Tensor x({4, 2});
  x.at2(0, 0) = 1.0f;
  x.at2(1, 1) = 1.0f;
  x.at2(2, 0) = -1.0f;
  x.at2(3, 1) = -1.0f;
  const std::vector<u32> y{0, 1, 0, 1};
  SgdConfig cfg;
  cfg.lr = 0.1;
  SgdOptimizer opt(m, cfg);
  const double initial = m.loss(x, y);
  for (int i = 0; i < 100; ++i) {
    m.zero_grad();
    m.loss_and_grad(x, y);
    opt.step();
  }
  EXPECT_LT(m.loss(x, y), initial * 0.2);
  EXPECT_DOUBLE_EQ(m.accuracy(x, y), 1.0);
}

TEST(Model, SaveLoadStateRoundTripsBatchNorm) {
  sys::Rng rng(21);
  Model m("bn");
  m.add(std::make_unique<Conv2d>(1, 2, 3, 1, 1, rng));
  m.add(std::make_unique<BatchNorm2d>(2));
  m.add(std::make_unique<GlobalAvgPool>());
  m.add(std::make_unique<Dense>(2, 2, rng));
  Tensor x({4, 1, 4, 4});
  for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i % 7) - 3.0f;
  m.forward(x, /*train=*/true);  // moves the running statistics
  const auto snap = m.save_state();
  const Tensor before = m.forward(x, /*train=*/false);
  for (int i = 0; i < 5; ++i) m.forward(x, /*train=*/true);  // drift stats further
  (*m.params()[0].value)[0] += 1.0f;                          // and damage a weight
  m.load_state(snap);
  const Tensor after = m.forward(x, /*train=*/false);
  for (usize i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(after[i], before[i]) << "state restore must reproduce inference";
  }
}

TEST(Trainer, LearnsEasySyntheticTask) {
  SynthSpec spec;
  spec.num_classes = 4;
  spec.train_per_class = 60;
  spec.test_per_class = 20;
  spec.channels = 1;
  spec.height = 8;
  spec.width = 8;
  spec.noise = 0.8;
  spec.seed = 555;
  const auto data = make_synthetic(spec);
  sys::Rng rng(16);
  Model m("mlp");
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Dense>(64, 24, rng));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(24, 4, rng));
  TrainConfig cfg;
  cfg.epochs = 5;
  const auto report = train(m, data, cfg);
  EXPECT_GT(report.test_accuracy, 0.85);
  EXPECT_LT(report.epoch_loss.back(), report.epoch_loss.front());
  EXPECT_NEAR(evaluate(m, data.test), report.test_accuracy, 1e-9);
}

}  // namespace
}  // namespace dnnd::nn
