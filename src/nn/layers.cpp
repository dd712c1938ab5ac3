#include "nn/layers.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "nn/gemm.hpp"
#include "nn/thread_pool.hpp"

namespace dnnd::nn {

namespace {

// Backward lowering helpers. Dense and Conv2d backward run on the forward's
// GEMM kernel (nn/gemm.hpp). Each gradient element is still ONE accumulator
// advanced over the same terms in the same order as the naive loops kept in
// nn/reference.cpp; what changed is that zero terms are no longer skipped.
// The old loops skipped dy == 0 and padded taps, whereas the GEMM adds their
// products, which are +0 or -0 for finite inputs. Adding a signed zero leaves
// any accumulator that is not -0 unchanged, and an accumulator that starts
// at +0 can never become -0 (a float sum is -0 only when both addends are).
// dx starts at +0, and the parameter gradients start from their zero_grad
// value (+0) or from earlier sums of the same kind, so the result is
// byte-identical for finite inputs (tests/test_gemm.cpp pins it against the
// reference over ragged shapes, and pins the non-finite case separately).
//
// Every Conv2d patch gather reads from zero-bordered copies of one sample's
// planes, so it is a plain window copy with no bounds tests: every gathered
// value is an input (or dy) value, or an exact zero.

/// Zeroes the C x PH x PW buffer `dst` and copies the C planes of H x W
/// elements at `src` into it, element (r, q) landing at (r*step + off,
/// q*step + off). Elements that land outside are dropped.
void spread_planes(const float* src, usize C, usize H, usize W, usize step, isize off,
                   usize PH, usize PW, float* dst) {
  std::fill(dst, dst + C * PH * PW, 0.0f);
  // Source indices [lo, hi) of n land inside [0, P); the first lands at pos.
  struct Span {
    usize lo, hi, pos;
  };
  auto span = [&](usize n, usize P) {
    const isize s = static_cast<isize>(step);
    const isize lo = off < 0 ? (-off + s - 1) / s : 0;
    const isize hi = std::min(static_cast<isize>(n), (static_cast<isize>(P) - off + s - 1) / s);
    return hi <= lo ? Span{0, 0, 0}
                    : Span{static_cast<usize>(lo), static_cast<usize>(hi),
                           static_cast<usize>(lo * s + off)};
  };
  const Span rows = span(H, PH), cols = span(W, PW);
  for (usize c = 0; c < C; ++c) {
    for (usize r = rows.lo, pr = rows.pos; r < rows.hi; ++r, pr += step) {
      float* out = dst + (c * PH + pr) * PW + cols.pos;
      const float* in = src + (c * H + r) * W;
      if (step == 1) {
        std::copy(in + cols.lo, in + cols.hi, out);
      } else {
        for (usize q = cols.lo; q < cols.hi; ++q, out += step) *out = in[q];
      }
    }
  }
}

/// Tap-major patch gather from one sample's padded input planes `xp`
/// (in_ch x (h + 2 pad) x (w + 2 pad)): T row kk = (ic, ki, kj), at
/// T + kk * ld, receives that tap's value for every output position.
/// kStride is the stride when fixed at compile time (0: read g.stride).
template <usize kStride>
void gather_taps(const float* xp, const ConvGeom& g, float* T, usize ld) {
  const usize stride = kStride != 0 ? kStride : g.stride;
  const usize ph = g.h + 2 * g.pad, pw = g.w + 2 * g.pad;
  usize kk = 0;
  for (usize ic = 0; ic < g.in_ch; ++ic) {
    for (usize ki = 0; ki < g.k; ++ki) {
      for (usize kj = 0; kj < g.k; ++kj, ++kk) {
        float* dst = T + kk * ld;
        for (usize oi = 0; oi < g.oh; ++oi, dst += g.ow) {
          const float* src = xp + (ic * ph + oi * stride + ki) * pw + kj;
          for (usize oj = 0; oj < g.ow; ++oj) dst[oj] = src[oj * stride];
        }
      }
    }
  }
}

/// Patch-major gather from padded planes laid out as for gather_taps: row
/// p = (oi, oj) of `col` holds the K = in_ch * k * k window values
/// xp[ic][oi*stride + ki][oj*stride + kj] at column (ic, ki, kj), so `col`
/// is the A operand of a per-sample GEMM with one row per output position.
/// kK is k when fixed at compile time (0: read g.k) -- the window rows are
/// only k floats long, so an unrolled copy is several times faster than a
/// runtime-length loop.
template <usize kK>
void gather_windows(const float* xp, const ConvGeom& g, float* col) {
  const usize k = kK != 0 ? kK : g.k;
  const usize ph = g.h + 2 * g.pad, pw = g.w + 2 * g.pad;
  for (usize oi = 0; oi < g.oh; ++oi) {
    for (usize oj = 0; oj < g.ow; ++oj) {
      for (usize ic = 0; ic < g.in_ch; ++ic) {
        const float* src = xp + (ic * ph + oi * g.stride) * pw + oj * g.stride;
        for (usize a = 0; a < k; ++a, src += pw, col += k) {
          for (usize b = 0; b < k; ++b) col[b] = src[b];
        }
      }
    }
  }
}

/// gather_windows with k fixed at compile time for the zoo's kernels.
void gather_windows_any(const float* xp, const ConvGeom& g, float* col) {
  (g.k == 3 ? gather_windows<3> : g.k == 1 ? gather_windows<1> : gather_windows<0>)(xp, g, col);
}

/// Runs fn(lo, hi, slot) over contiguous chunks [lo, hi) of the n samples,
/// each chunk drawing scratch from team slot `slot` of `ws`: across a pool
/// team when plan_teams(n, work) allows one, else as one serial chunk in
/// slot 0, where each sample's GEMM threads internally instead. Samples
/// write disjoint outputs, so either split is bit-transparent.
template <typename Fn>
void for_sample_chunks(usize n, usize work, Workspace& ws, Fn&& fn) {
  const usize teams = gemm::plan_teams(n, work);
  if (teams <= 1) {
    fn(usize{0}, n, usize{0});
    return;
  }
  ws.reserve_team(teams);
  ThreadPool::instance().parallel(teams, [&](usize slot, usize nslots) {
    const usize chunk = (n + nslots - 1) / nslots;
    const usize lo = std::min(n, slot * chunk), hi = std::min(n, lo + chunk);
    if (lo < hi) fn(lo, hi, slot);
  });
}

}  // namespace

// ----------------------------------------------------------------- Layer ----

// The wrappers keep the last forward's x and y in slots keyed by the private
// workspace itself, which no layer uses as a slot owner.

Tensor Layer::forward(const Tensor& x, bool train) {
  if (!legacy_ws_) legacy_ws_ = std::make_unique<Workspace>();
  Workspace& ws = *legacy_ws_;
  Tensor& xs = ws.slot(&ws, Workspace::SlotKind::kActivation, 0);
  Tensor& ys = ws.slot(&ws, Workspace::SlotKind::kActivation, 1);
  xs = x;
  forward_into(xs, ys, train, ws);
  return ys;
}

Tensor Layer::backward(const Tensor& dy) {
  if (!legacy_ws_) throw std::logic_error("Layer::backward: no forward to differentiate");
  Workspace& ws = *legacy_ws_;
  Tensor dx;
  backward_into(ws.slot(&ws, Workspace::SlotKind::kActivation, 0),
                ws.slot(&ws, Workspace::SlotKind::kActivation, 1), dy, &dx, ws);
  return dx;
}

// ---------------------------------------------------------------- Dense ----

Dense::Dense(usize in_features, usize out_features, sys::Rng& rng)
    : weight(Tensor::he_normal({out_features, in_features}, in_features, rng)),
      bias(Tensor::zeros({out_features})),
      dweight(Tensor::zeros({out_features, in_features})),
      dbias(Tensor::zeros({out_features})),
      in_(in_features),
      out_(out_features) {}

void Dense::forward_into(const Tensor& x, Tensor& y, bool /*train*/, Workspace& ws) {
  assert(x.rank() == 2 && x.dim(1) == in_);
  const usize n = x.dim(0);
  y.resize({n, out_});
  // y = x W^T + b: both operands K-major, bias per output feature (column).
  float* packed = ws.pack_buffer(gemm::packed_b_size(out_, in_));
  gemm::pack_b(weight.data(), in_, out_, in_, packed);
  gemm::gemm_nt_prepacked(n, out_, in_, x.data(), in_, packed, y.data(), out_, 1, bias.data(),
                          gemm::Bias::kPerCol);
}

bool Dense::forward_row_into(const Tensor& x, usize row, Tensor& y, Workspace& /*ws*/) {
  assert(x.rank() == 2 && x.dim(1) == in_ && row < out_);
  const usize n = x.dim(0);
  y.resize({n, 1});
  // One output feature of forward_into, term for term: the GEMM contract's
  // single accumulator, bias first, ascending k.
  const float* w = weight.data() + row * in_;
  for (usize b = 0; b < n; ++b) {
    const float* xb = x.data() + b * in_;
    float acc = bias[row];
    for (usize k = 0; k < in_; ++k) acc = acc + xb[k] * w[k];
    y[b] = acc;
  }
  return true;
}

void Dense::backward_into(const Tensor& x, const Tensor& /*y*/, const Tensor& dy, Tensor* dx,
                          Workspace& ws) {
  const usize n = x.dim(0);
  assert(dy.rank() == 2 && dy.dim(0) == n && dy.dim(1) == out_);
  float* packed = ws.pack_buffer(gemm::packed_b_size(in_, std::max(out_, n)));
  if (dx != nullptr) {
    // dx = dy W: dx[i, j] reduces over ascending outputs o. The weight is the
    // transposed B operand, packed straight from its row-major layout.
    dx->resize({n, in_});
    gemm::pack_bt(weight.data(), in_, in_, out_, packed);
    gemm::gemm_nt_prepacked(n, in_, out_, dy.data(), out_, packed, dx->data(), in_, 1, nullptr,
                            gemm::Bias::kNone);
  }
  // dweight += dy^T x: dweight[o, j] continues its sum over ascending samples.
  float* dyt = ws.transpose_buffer(out_ * n);
  for (usize i = 0; i < n; ++i) {
    for (usize o = 0; o < out_; ++o) dyt[o * n + i] = dy.at2(i, o);
  }
  gemm::pack_bt(x.data(), in_, in_, n, packed);
  gemm::gemm_nt_prepacked(out_, in_, n, dyt, n, packed, dweight.data(), in_, 1, nullptr,
                          gemm::Bias::kAccumulate);
  for (usize i = 0; i < n; ++i) {
    for (usize o = 0; o < out_; ++o) dbias[o] += dy.at2(i, o);
  }
}

std::vector<ParamRef> Dense::params() {
  return {{"weight", &weight, &dweight, /*quantizable=*/true},
          {"bias", &bias, &dbias, /*quantizable=*/false}};
}

// --------------------------------------------------------------- Conv2d ----

Conv2d::Conv2d(usize in_ch, usize out_ch, usize kernel, usize stride, usize padding,
               sys::Rng& rng)
    : weight(Tensor::he_normal({out_ch, in_ch, kernel, kernel}, in_ch * kernel * kernel, rng)),
      bias(Tensor::zeros({out_ch})),
      dweight(Tensor::zeros({out_ch, in_ch, kernel, kernel})),
      dbias(Tensor::zeros({out_ch})),
      in_ch_(in_ch),
      out_ch_(out_ch),
      k_(kernel),
      stride_(stride),
      pad_(padding) {}

void Conv2d::forward_into(const Tensor& x, Tensor& y, bool /*train*/, Workspace& ws) {
  assert(x.rank() == 4 && x.dim(1) == in_ch_);
  const usize n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const ConvGeom g = geom(h, w);
  const usize K = g.patch_size(), P = g.oh * g.ow, chw = in_ch_ * h * w;
  y.resize({n, out_ch_, g.oh, g.ow});
  // Lowering: per sample, y[oc, p] = bias[oc] + dot(col[p, :], W[oc, :]) over
  // the patch dimension. The sample's planes are spread into a zero-bordered
  // copy, so every patch row of `col` is a plain window copy; the rows
  // stream through the GEMM against the packed weight panels (the small
  // operand), and the strided store writes the NCHW slice directly. The
  // padded taps contribute exact zeros in the same (ic, ki, kj) positions the
  // naive loops skipped, so the accumulation is bit-identical (adding a
  // signed zero never changes a non-negative-zero accumulator, and the
  // accumulator can only be -0.0 if the bias is).
  //
  // The weight panel is packed once per call, not per sample, and before the
  // sample region: team slots only read it.
  float* packed_w = ws.pack_buffer(gemm::packed_b_size(out_ch_, K));
  gemm::pack_b(weight.data(), K, out_ch_, K, packed_w);
  for_sample_chunks(n, n * P * K * out_ch_, ws, [&](usize lo, usize hi, usize slot) {
    const usize ph = h + 2 * pad_, pw = w + 2 * pad_;
    float* xp = ws.col_buffer(in_ch_ * ph * pw + P * K, slot);
    float* col = xp + in_ch_ * ph * pw;
    for (usize b = lo; b < hi; ++b) {
      spread_planes(x.data() + b * chw, in_ch_, h, w, 1, static_cast<isize>(pad_), ph, pw, xp);
      gather_windows_any(xp, g, col);
      gemm::gemm_nt_prepacked(P, out_ch_, K, col, K, packed_w, y.data() + b * out_ch_ * P, 1,
                              P, bias.data(), gemm::Bias::kPerCol);
    }
  });
}

bool Conv2d::forward_row_into(const Tensor& x, usize row, Tensor& y, Workspace& ws) {
  assert(x.rank() == 4 && x.dim(1) == in_ch_ && row < out_ch_);
  const usize n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const ConvGeom g = geom(h, w);
  const usize K = g.patch_size(), P = g.oh * g.ow;
  y.resize({n, 1, g.oh, g.ow});
  // One accumulator per output position, bias first, then the taps in
  // ascending (ic, ki, kj) as a separate multiply and add -- the gemm.hpp
  // contract, so the bytes equal the GEMM's. Tap (ic, ki, kj) of output
  // (oi, oj) is the zero-bordered input element (ic, oi*stride + ki,
  // oj*stride + kj): forward_into's patch entry, padding zeros included. The
  // padded planes are stored channel-major over the whole batch,
  // xp[ic][b][ph][pw], and the accumulators run over the same padded grid,
  // acc[b][r][c]: output (oi, oj) of sample b is grid point (oi*stride,
  // oj*stride), and tap (ki, kj) of every grid point is one fixed offset away
  // in xp. So each tap is a single contiguous multiply-add over the batch;
  // grid points that are not outputs are computed and dropped.
  const usize ph = h + 2 * pad_, pw = w + 2 * pad_, grid = ph * pw, G = n * grid;
  const usize span = (n - 1) * grid + (g.oh - 1) * stride_ * pw + (g.ow - 1) * stride_ + 1;
  float* xp = ws.col_buffer(in_ch_ * G + G);
  float* acc = xp + in_ch_ * G;
  for (usize ic = 0; ic < in_ch_; ++ic) {
    for (usize b = 0; b < n; ++b) {
      spread_planes(x.data() + (b * in_ch_ + ic) * h * w, 1, h, w, 1, static_cast<isize>(pad_),
                    ph, pw, xp + (ic * n + b) * grid);
    }
  }
  std::fill(acc, acc + span, bias[row]);
  const float* wrow = weight.data() + row * K;
  usize kk = 0;
  for (usize ic = 0; ic < in_ch_; ++ic) {
    for (usize ki = 0; ki < k_; ++ki) {
      for (usize kj = 0; kj < k_; ++kj, ++kk) {
        const float wk = wrow[kk];
        const float* src = xp + ic * G + ki * pw + kj;
        for (usize q = 0; q < span; ++q) acc[q] = acc[q] + src[q] * wk;
      }
    }
  }
  for (usize b = 0; b < n; ++b) {
    float* yb = y.data() + b * P;
    for (usize oi = 0; oi < g.oh; ++oi) {
      const float* a = acc + b * grid + oi * stride_ * pw;
      for (usize oj = 0; oj < g.ow; ++oj) yb[oi * g.ow + oj] = a[oj * stride_];
    }
  }
  return true;
}

void Conv2d::backward_into(const Tensor& x, const Tensor& /*y*/, const Tensor& dy, Tensor* dx,
                           Workspace& ws) {
  const usize n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const ConvGeom g = geom(h, w);
  assert(dy.dim(2) == g.oh && dy.dim(3) == g.ow);
  const usize K = g.patch_size(), P = g.oh * g.ow, hw = h * w;
  const usize kk = k_ * k_, Kd = out_ch_ * kk;  ///< dx GEMM depth: (oc, a, b)

  // dbias[oc] continues its sum over ascending (sample, output position).
  for (usize oc = 0; oc < out_ch_; ++oc) {
    float acc = dbias[oc];
    for (usize b = 0; b < n; ++b) {
      const float* gy = dy.data() + (b * out_ch_ + oc) * P;
      for (usize p = 0; p < P; ++p) acc += gy[p];
    }
    dbias[oc] = acc;
  }

  // dx, one GEMM per sample: dx[ic, hi, wj] = sum over (oc, a, b) of
  // dy[oc, i, j] * W[oc, ic, k-1-a, k-1-b], where i*stride + (k-1-a) - pad = hi
  // and likewise for j (terms with no such output position are +0). For a
  // fixed dx element, ascending a is descending ki and so ascending i, and
  // ascending b is ascending j: the k order (oc, a, b) is exactly the naive
  // loops' (oc, i, j) term order, at every stride. The dy windows come from
  // a plane that spreads dy by the stride and offsets it by k-1-pad. None of
  // it runs when no dx is wanted.
  float* wpack = nullptr;
  if (dx != nullptr) {
    dx->resize({n, in_ch_, h, w});
    float* wf = ws.transpose_buffer(in_ch_ * Kd);
    for (usize ic = 0; ic < in_ch_; ++ic) {
      for (usize oc = 0; oc < out_ch_; ++oc) {
        const float* src = weight.data() + (oc * in_ch_ + ic) * kk;
        float* dst = wf + ic * Kd + oc * kk;
        for (usize t = 0; t < kk; ++t) dst[t] = src[kk - 1 - t];
      }
    }
    wpack = ws.pack_buffer(gemm::packed_b_size(in_ch_, Kd));
    gemm::pack_b(wf, Kd, in_ch_, Kd, wpack);
  }
  // The same per-sample pass gathers the sample's input taps into the
  // whole-batch dweight operand (columns b*P .. b*P + P of every tap row).
  float* taps = ws.taps_buffer(K * n * P);
  const usize ph = h + 2 * pad_, pw = w + 2 * pad_, dh = h + k_ - 1, dw = w + k_ - 1;
  const usize xp_size = in_ch_ * ph * pw, dp_size = out_ch_ * dh * dw;
  const isize dy_off = static_cast<isize>(k_) - 1 - static_cast<isize>(pad_);
  // The dy plane as the input of an unpadded stride-1 convolution with
  // output h x w: its windows are the dx GEMM's rows.
  const ConvGeom dy_geom{out_ch_, k_, 1, 0, dh, dw, h, w};
  const usize work = dx != nullptr ? n * hw * in_ch_ * Kd : n * P * K;
  for_sample_chunks(n, work, ws, [&](usize lo, usize hi, usize slot) {
    float* xp = ws.col_buffer(xp_size + (dx != nullptr ? dp_size + hw * Kd : 0), slot);
    float* dp = xp + xp_size;
    float* col = dp + dp_size;
    for (usize b = lo; b < hi; ++b) {
      spread_planes(x.data() + b * in_ch_ * hw, in_ch_, h, w, 1, static_cast<isize>(pad_), ph,
                    pw, xp);
      (stride_ == 1 ? gather_taps<1> : gather_taps<0>)(xp, g, taps + b * P, n * P);
      if (dx == nullptr) continue;
      spread_planes(dy.data() + b * out_ch_ * P, out_ch_, g.oh, g.ow, stride_, dy_off, dh, dw,
                    dp);
      gather_windows_any(dp, dy_geom, col);
      gemm::gemm_nt_prepacked(hw, in_ch_, Kd, col, Kd, wpack, dx->data() + b * in_ch_ * hw, 1,
                              hw, nullptr, gemm::Bias::kNone);
    }
  });

  // dweight += taps x dy^T, one GEMM over the whole batch: dweight[oc, kk]
  // continues its sum over ascending (sample, output position), and a short
  // per-sample reduction (P = 9 in the deepest vgg11 layer) still gets one
  // long k loop.
  float* dypack = ws.pack_buffer(gemm::packed_b_size(out_ch_, n * P));
  for (usize b = 0; b < n; ++b) {
    gemm::pack_b_block(dy.data() + b * out_ch_ * P, P, out_ch_, P, b * P, n * P, dypack);
  }
  gemm::gemm_nt_prepacked(K, out_ch_, n * P, taps, n * P, dypack, dweight.data(), 1, K,
                          nullptr, gemm::Bias::kAccumulate);
}

std::vector<ParamRef> Conv2d::params() {
  return {{"weight", &weight, &dweight, /*quantizable=*/true},
          {"bias", &bias, &dbias, /*quantizable=*/false}};
}

// ----------------------------------------------------------------- ReLU ----

void ReLU::forward_into(const Tensor& x, Tensor& y, bool /*train*/, Workspace& /*ws*/) {
  y.resize(x.shape());
  for (usize i = 0; i < x.size(); ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

namespace {

/// dy times the relu mask, taken from the output: y > 0 exactly where x > 0
/// (y is x there and +0 elsewhere). The mask multiplies as 1.0f or 0.0f
/// instead of selecting dy, so an inf or NaN dy still turns into NaN at a
/// dead unit and a negative dy into -0. The factor is built from the
/// comparison's bits -- all ones ANDed with the bits of 1.0f -- so the loop
/// is compare, mask, multiply with no branch, and vectorizes.
void relu_mask_into(const Tensor& y, const Tensor& dy, Tensor& dx) {
  assert(dy.size() == y.size());
  dx.resize(dy.shape());
  const float* __restrict yp = y.data();
  const float* __restrict gp = dy.data();
  float* __restrict out = dx.data();
  for (usize i = 0, n = dy.size(); i < n; ++i) {
    const u32 one_or_zero = (0u - static_cast<u32>(yp[i] > 0.0f)) & 0x3f800000u;
    out[i] = gp[i] * std::bit_cast<float>(one_or_zero);
  }
}

}  // namespace

void ReLU::backward_into(const Tensor& /*x*/, const Tensor& y, const Tensor& dy, Tensor* dx,
                         Workspace& /*ws*/) {
  relu_mask_into(y, dy, *dx);
}

// ------------------------------------------------------------ MaxPool2d ----

namespace {

/// Calls f(out_idx, idx, best) for every 2x2 window of the NCHW tensor x in
/// output order, where best is the window maximum under a strict-> scan from
/// -inf and idx the flat index of the element holding it. A window with no
/// element above -inf (all NaN or all -inf) reports best = -inf at its own
/// first element.
template <typename F>
void for_each_pool_window(const Tensor& x, F&& f) {
  const usize n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const usize oh = h / 2, ow = w / 2;
  usize out_idx = 0;
  for (usize bc = 0; bc < n * c; ++bc) {
    for (usize i = 0; i < oh; ++i) {
      for (usize j = 0; j < ow; ++j) {
        const usize first = (bc * h + i * 2) * w + j * 2;
        float best = -std::numeric_limits<float>::infinity();
        usize best_idx = first;
        for (const usize idx : {first, first + 1, first + w, first + w + 1}) {
          if (x[idx] > best) {
            best = x[idx];
            best_idx = idx;
          }
        }
        f(out_idx++, best_idx, best);
      }
    }
  }
}

}  // namespace

void MaxPool2d::forward_into(const Tensor& x, Tensor& y, bool /*train*/, Workspace& /*ws*/) {
  assert(x.rank() == 4);
  y.resize({x.dim(0), x.dim(1), x.dim(2) / 2, x.dim(3) / 2});
  for_each_pool_window(x, [&](usize out_idx, usize /*idx*/, float best) {
    y[out_idx] = best;
  });
}

void MaxPool2d::backward_into(const Tensor& x, const Tensor& /*y*/, const Tensor& dy,
                              Tensor* dx, Workspace& /*ws*/) {
  // Re-runs the forward's scan over x to find each window's chosen element.
  dx->resize(x.shape());
  dx->zero();
  for_each_pool_window(x, [&](usize out_idx, usize idx, float /*best*/) {
    (*dx)[idx] += dy[out_idx];
  });
}

// -------------------------------------------------------- GlobalAvgPool ----

void GlobalAvgPool::forward_into(const Tensor& x, Tensor& y, bool /*train*/, Workspace& /*ws*/) {
  assert(x.rank() == 4);
  const usize n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  y.resize({n, c});
  for (usize b = 0; b < n; ++b) {
    for (usize ch = 0; ch < c; ++ch) {
      double acc = 0.0;
      const float* p = x.data() + (b * c + ch) * hw;
      for (usize i = 0; i < hw; ++i) acc += p[i];
      y.at2(b, ch) = static_cast<float>(acc / static_cast<double>(hw));
    }
  }
}

void GlobalAvgPool::backward_into(const Tensor& x, const Tensor& /*y*/, const Tensor& dy,
                                  Tensor* dx, Workspace& /*ws*/) {
  const usize n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  dx->resize(x.shape());
  const float inv = 1.0f / static_cast<float>(hw);
  for (usize b = 0; b < n; ++b) {
    for (usize ch = 0; ch < c; ++ch) {
      const float g = dy.at2(b, ch) * inv;
      float* p = dx->data() + (b * c + ch) * hw;
      for (usize i = 0; i < hw; ++i) p[i] = g;
    }
  }
}

// -------------------------------------------------------------- Flatten ----

void Flatten::forward_into(const Tensor& x, Tensor& y, bool /*train*/, Workspace& /*ws*/) {
  usize f = 1;
  for (usize i = 1; i < x.rank(); ++i) f *= x.dim(i);
  y.resize({x.dim(0), f});
  std::memcpy(y.data(), x.data(), x.size() * sizeof(float));
}

void Flatten::backward_into(const Tensor& x, const Tensor& /*y*/, const Tensor& dy, Tensor* dx,
                            Workspace& /*ws*/) {
  dx->resize(x.shape());
  std::memcpy(dx->data(), dy.data(), dy.size() * sizeof(float));
}

// ---------------------------------------------------------- BatchNorm2d ----

namespace {

/// y = gamma * ((x - mean) * inv_std) + beta over `count` floats: the one
/// normalisation expression of the full and the one-channel forward.
void bn_normalize(const float* x, float* y, usize count, float mean, float inv_std,
                  float gamma, float beta) {
  for (usize i = 0; i < count; ++i) {
    const float xh = (x[i] - mean) * inv_std;
    y[i] = gamma * xh + beta;
  }
}

}  // namespace

BatchNorm2d::BatchNorm2d(usize channels, float momentum, float eps)
    : gamma(Tensor::full({channels}, 1.0f)),
      beta(Tensor::zeros({channels})),
      dgamma(Tensor::zeros({channels})),
      dbeta(Tensor::zeros({channels})),
      running_mean(Tensor::zeros({channels})),
      running_var(Tensor::full({channels}, 1.0f)),
      channels_(channels),
      momentum_(momentum),
      eps_(eps) {}

void BatchNorm2d::forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) {
  assert(x.rank() == 4 && x.dim(1) == channels_);
  const usize n = x.dim(0), c = channels_, hw = x.dim(2) * x.dim(3);
  const usize count = n * hw;
  // Row 0: the mean each channel was normalised with; row 1: its 1/std.
  Tensor& stats = ws.slot(this, Workspace::SlotKind::kScratch, 0);
  stats.resize({2, c});
  float* batch_mean = stats.data();
  float* batch_inv_std = stats.data() + c;
  y.resize(x.shape());
  // Channels are fully independent (statistics, normalisation, and running-
  // stat updates all live per channel), so a channel partition is trivially
  // byte-identical to the serial loop.
  ThreadPool::instance().parallel(
      gemm::plan_teams(c, 3 * x.size()), [&](usize slot, usize nslots) {
        const usize chunk = (c + nslots - 1) / nslots;
        const usize ch_lo = std::min(c, slot * chunk), ch_hi = std::min(c, ch_lo + chunk);
        for (usize ch = ch_lo; ch < ch_hi; ++ch) {
          double mean = 0.0, var = 0.0;
          if (train) {
            for (usize b = 0; b < n; ++b) {
              const float* p = x.data() + (b * c + ch) * hw;
              for (usize i = 0; i < hw; ++i) mean += p[i];
            }
            mean /= static_cast<double>(count);
            for (usize b = 0; b < n; ++b) {
              const float* p = x.data() + (b * c + ch) * hw;
              for (usize i = 0; i < hw; ++i) {
                const double d = p[i] - mean;
                var += d * d;
              }
            }
            var /= static_cast<double>(count);
            running_mean[ch] = (1.0f - momentum_) * running_mean[ch] +
                               momentum_ * static_cast<float>(mean);
            running_var[ch] =
                (1.0f - momentum_) * running_var[ch] + momentum_ * static_cast<float>(var);
          } else {
            mean = running_mean[ch];
            var = running_var[ch];
          }
          const float mean_f = static_cast<float>(mean);
          const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
          batch_mean[ch] = mean_f;
          batch_inv_std[ch] = inv_std;
          for (usize b = 0; b < n; ++b) {
            const usize off = (b * c + ch) * hw;
            bn_normalize(x.data() + off, y.data() + off, hw, mean_f, inv_std, gamma[ch],
                         beta[ch]);
          }
        }
      });
}

void BatchNorm2d::forward_channel_into(const Tensor& x, usize c, Tensor& y,
                                       Workspace& /*ws*/) {
  assert(x.rank() == 4 && x.dim(1) == 1 && c < channels_);
  y.resize(x.shape());
  // The eval branch of forward_into: the running statistics round-trip
  // through double exactly, so mean and 1/std are the same floats.
  bn_normalize(x.data(), y.data(), x.size(), running_mean[c],
               1.0f / std::sqrt(running_var[c] + eps_), gamma[c], beta[c]);
}

void BatchNorm2d::backward_into(const Tensor& x, const Tensor& /*y*/, const Tensor& dy,
                                Tensor* dx, Workspace& ws) {
  const usize n = x.dim(0), c = channels_, hw = x.dim(2) * x.dim(3);
  const double count = static_cast<double>(n * hw);
  const Tensor& stats = ws.slot(this, Workspace::SlotKind::kScratch, 0);
  assert(stats.size() == 2 * c);
  const float* batch_mean = stats.data();
  const float* batch_inv_std = stats.data() + c;
  if (dx != nullptr) dx->resize(x.shape());
  // Per-channel independent (reductions, dgamma/dbeta, and dx slices), so the
  // channel partition is byte-identical to the serial loop.
  ThreadPool::instance().parallel(
      gemm::plan_teams(c, 4 * dy.size()), [&](usize slot, usize nslots) {
        const usize chunk = (c + nslots - 1) / nslots;
        const usize ch_lo = std::min(c, slot * chunk), ch_hi = std::min(c, ch_lo + chunk);
        for (usize ch = ch_lo; ch < ch_hi; ++ch) {
          // Standard batch-norm backward. x_hat is recomputed from x with
          // the forward's float expression, so it matches the forward's bytes
          // (the build pins -ffp-contract=off).
          const float mean = batch_mean[ch], inv_std = batch_inv_std[ch];
          double sum_dy = 0.0, sum_dy_xhat = 0.0;
          for (usize b = 0; b < n; ++b) {
            const float* p = x.data() + (b * c + ch) * hw;
            const float* gy = dy.data() + (b * c + ch) * hw;
            for (usize i = 0; i < hw; ++i) {
              const float xh = (p[i] - mean) * inv_std;
              sum_dy += gy[i];
              sum_dy_xhat += static_cast<double>(gy[i]) * xh;
            }
          }
          dbeta[ch] += static_cast<float>(sum_dy);
          dgamma[ch] += static_cast<float>(sum_dy_xhat);
          if (dx == nullptr) continue;
          const float g = gamma[ch];
          for (usize b = 0; b < n; ++b) {
            const float* p = x.data() + (b * c + ch) * hw;
            const float* gy = dy.data() + (b * c + ch) * hw;
            float* gx = dx->data() + (b * c + ch) * hw;
            for (usize i = 0; i < hw; ++i) {
              const float xh = (p[i] - mean) * inv_std;
              gx[i] = static_cast<float>(
                  static_cast<double>(g) * inv_std *
                  (static_cast<double>(gy[i]) - sum_dy / count -
                   static_cast<double>(xh) * sum_dy_xhat / count));
            }
          }
        }
      });
}

std::vector<ParamRef> BatchNorm2d::params() {
  return {{"gamma", &gamma, &dgamma, /*quantizable=*/false},
          {"beta", &beta, &dbeta, /*quantizable=*/false}};
}

// ------------------------------------------------------------ Sequential ----

const Tensor& Sequential::forward_cached(const Tensor& x, bool train, Workspace& ws) {
  Tensor& x0 = ws.slot(this, Workspace::SlotKind::kActivation, 0);
  x0 = x;
  const Tensor* in = &x0;
  for (usize i = 0; i < layers_.size(); ++i) {
    Tensor& out = ws.slot(this, Workspace::SlotKind::kActivation, i + 1);
    layers_[i]->forward_into(*in, out, train, ws);
    in = &out;
  }
  clean_frontier_ = layers_.size();
  cache_ws_ = &ws;
  return *in;
}

const Tensor& Sequential::refresh(usize upto, Workspace& ws) {
  if (cache_ws_ != &ws) {
    throw std::logic_error("Sequential::refresh: no cached forward to reuse in this workspace");
  }
  upto = std::min(upto, layers_.size());
  for (; clean_frontier_ < upto; ++clean_frontier_) {
    const usize i = clean_frontier_;
    layers_[i]->forward_into(ws.slot(this, Workspace::SlotKind::kActivation, i),
                             ws.slot(this, Workspace::SlotKind::kActivation, i + 1),
                             /*train=*/false, ws);
  }
  return ws.slot(this, Workspace::SlotKind::kActivation, upto);
}

const Tensor& Sequential::run_probe(usize first, const Tensor& in, Workspace& probe) {
  const Tensor* x = &in;
  for (usize i = first; i < layers_.size(); ++i) {
    Tensor& out = probe.slot(this, Workspace::SlotKind::kActivation, i + 1);
    layers_[i]->forward_into(*x, out, /*train=*/false, probe);
    x = &out;
  }
  return *x;
}

const Tensor& Sequential::probe_from(usize first_changed, Workspace& ws, Workspace& probe) {
  first_changed = std::min(first_changed, layers_.size());
  return run_probe(first_changed, refresh(first_changed, ws), probe);
}

const Tensor& Sequential::probe_row(usize k, usize row, Workspace& ws, Workspace& probe) {
  const Tensor& x = refresh(k, ws);
  if (k >= layers_.size()) return x;
  // Layers (k, j) are channel-local: row `row` of layer k's output reaches
  // layer j's input as channel `row`, and nothing else does.
  usize j = k + 1;
  while (j < layers_.size() && layers_[j]->channel_local()) ++j;
  // The splice target (activation j) must be clean, the batch non-empty, and
  // layer k must have a one-row kernel; otherwise take the dense path from k.
  Tensor* chan = &probe.slot(this, Workspace::SlotKind::kScratch, k + 1);
  if (clean_frontier_ < j || x.size() == 0 ||
      !layers_[k]->forward_row_into(x, row, *chan, probe)) {
    return run_probe(k, x, probe);
  }
  for (usize i = k + 1; i < j; ++i) {
    Tensor& out = probe.slot(this, Workspace::SlotKind::kScratch, i + 1);
    layers_[i]->forward_channel_into(*chan, row, out, probe);
    chan = &out;
  }
  // Layer j's input: the clean activation with channel `row` replaced. Every
  // channel-local layer keeps channel c at the same per-sample block, so the
  // channel lands at offset row * block of each sample.
  const Tensor& clean = ws.slot(this, Workspace::SlotKind::kActivation, j);
  Tensor& xj = probe.slot(this, Workspace::SlotKind::kActivation, j);
  xj = clean;
  const usize n = clean.dim(0), per_sample = clean.size() / n, block = chan->size() / n;
  assert((row + 1) * block <= per_sample);
  for (usize b = 0; b < n; ++b) {
    std::memcpy(xj.data() + b * per_sample + row * block, chan->data() + b * block,
                block * sizeof(float));
  }
  return run_probe(j, xj, probe);
}

void Sequential::add(std::unique_ptr<Layer> layer) {
  if (lowest_param_layer_ == layers_.size() && layer->params().empty()) ++lowest_param_layer_;
  layers_.push_back(std::move(layer));
}

const Tensor* Sequential::backward_down_to(usize lowest, bool input_grad, const Tensor& dy,
                                           Workspace& ws) {
  const Tensor* g = &dy;
  for (usize i = layers_.size(); i-- > lowest;) {
    Tensor* gx = i > lowest || input_grad ? &ws.slot(this, Workspace::SlotKind::kGradient, i)
                                          : nullptr;
    layers_[i]->backward_into(ws.slot(this, Workspace::SlotKind::kActivation, i),
                              ws.slot(this, Workspace::SlotKind::kActivation, i + 1), *g, gx,
                              ws);
    g = gx;
  }
  return g;
}

const Tensor& Sequential::backward_cached(const Tensor& dy, Workspace& ws) {
  return *backward_down_to(0, /*input_grad=*/true, dy, ws);
}

void Sequential::backward_params(const Tensor& dy, Workspace& ws) {
  backward_down_to(lowest_param_layer_, /*input_grad=*/false, dy, ws);
}

void Sequential::forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) {
  y = forward_cached(x, train, ws);
}

void Sequential::backward_into(const Tensor& /*x*/, const Tensor& /*y*/, const Tensor& dy,
                               Tensor* dx, Workspace& ws) {
  if (dx != nullptr) {
    *dx = backward_cached(dy, ws);
  } else {
    backward_params(dy, ws);
  }
}

std::vector<Tensor*> Sequential::state_tensors() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* t : l->state_tensors()) out.push_back(t);
  }
  return out;
}

std::vector<ParamRef> Sequential::params() {
  std::vector<ParamRef> out;
  for (usize i = 0; i < layers_.size(); ++i) {
    for (auto& p : layers_[i]->params()) {
      p.name = std::to_string(i) + "." + layers_[i]->name() + "." + p.name;
      // The outermost Sequential wins, so after Model::params() this is the
      // index within the model's top-level net -- the probes' layer argument.
      p.top_layer = i;
      out.push_back(p);
    }
  }
  return out;
}

// --------------------------------------------------------- ResidualBlock ----

ResidualBlock::ResidualBlock(usize in_ch, usize out_ch, usize stride, sys::Rng& rng) {
  body_.add(std::make_unique<Conv2d>(in_ch, out_ch, 3, stride, 1, rng));
  body_.add(std::make_unique<BatchNorm2d>(out_ch));
  body_.add(std::make_unique<ReLU>());
  body_.add(std::make_unique<Conv2d>(out_ch, out_ch, 3, 1, 1, rng));
  body_.add(std::make_unique<BatchNorm2d>(out_ch));
  if (stride != 1 || in_ch != out_ch) {
    projection_ = std::make_unique<Sequential>();
    projection_->add(std::make_unique<Conv2d>(in_ch, out_ch, 1, stride, 0, rng));
    projection_->add(std::make_unique<BatchNorm2d>(out_ch));
  }
}

void ResidualBlock::forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) {
  const Tensor& f = body_.forward_cached(x, train, ws);
  const Tensor& s = projection_ ? projection_->forward_cached(x, train, ws) : x;
  assert(f.size() == s.size());
  y.resize(f.shape());
  for (usize i = 0; i < f.size(); ++i) {
    const float v = f[i] + s[i];
    y[i] = v > 0.0f ? v : 0.0f;
  }
}

void ResidualBlock::backward_into(const Tensor& /*x*/, const Tensor& y, const Tensor& dy,
                                  Tensor* dx, Workspace& ws) {
  Tensor& dsum = ws.slot(this, Workspace::SlotKind::kScratch, 0);
  relu_mask_into(y, dy, dsum);
  if (dx == nullptr) {
    body_.backward_params(dsum, ws);
    if (projection_) projection_->backward_params(dsum, ws);
    return;
  }
  *dx = body_.backward_cached(dsum, ws);
  if (projection_) {
    dx->add_(projection_->backward_cached(dsum, ws));
  } else {
    dx->add_(dsum);
  }
}

std::vector<Tensor*> ResidualBlock::state_tensors() {
  std::vector<Tensor*> out = body_.state_tensors();
  if (projection_) {
    for (Tensor* t : projection_->state_tensors()) out.push_back(t);
  }
  return out;
}

std::vector<ParamRef> ResidualBlock::params() {
  std::vector<ParamRef> out;
  for (auto& p : body_.params()) {
    p.name = "body." + p.name;
    out.push_back(p);
  }
  if (projection_) {
    for (auto& p : projection_->params()) {
      p.name = "proj." + p.name;
      out.push_back(p);
    }
  }
  return out;
}

}  // namespace dnnd::nn
