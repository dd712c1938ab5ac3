#include "nn/layers.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "nn/gemm.hpp"
#include "nn/simd.hpp"
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
// The Conv2d gathers read from zero-bordered copies of one sample's planes,
// so they are plain window copies with no bounds tests: every gathered value
// is an input or dy value, or an exact +0.

/// Zeroes the C x PH x PW buffer `dst` and copies the C planes of H x W
/// floats at `src` into it, element (r, q) landing at (r*step + off,
/// q*step + off). Elements that land outside are dropped.
void spread_planes(const float* src, usize C, usize H, usize W, usize step, isize off,
                   usize PH, usize PW, float* dst) {
  std::fill(dst, dst + C * PH * PW, 0.0f);
  for (usize c = 0; c < C; ++c) {
    for (usize r = 0; r < H; ++r) {
      const isize pr = static_cast<isize>(r * step) + off;
      if (pr < 0 || pr >= static_cast<isize>(PH)) continue;
      float* row = dst + (c * PH + static_cast<usize>(pr)) * PW;
      const float* in = src + (c * H + r) * W;
      for (usize q = 0; q < W; ++q) {
        const isize pq = static_cast<isize>(q * step) + off;
        if (pq >= 0 && pq < static_cast<isize>(PW)) row[pq] = in[q];
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

/// Patch-major gather of every k x k window of C planes `dp` (each
/// (h + k - 1) x (w + k - 1)): row (hi, wj) of `col` holds
/// dp[c][hi + a][wj + b] at column (c, a, b). kK is k when fixed at compile
/// time (0: read `k`) -- the window rows are only k floats long, so an
/// unrolled copy is several times faster than a runtime-length loop.
template <usize kK>
void gather_windows(const float* dp, usize C, usize k_any, usize h, usize w, float* col) {
  const usize k = kK != 0 ? kK : k_any;
  const usize dh = h + k - 1, dw = w + k - 1;
  for (usize hi = 0; hi < h; ++hi) {
    for (usize wj = 0; wj < w; ++wj) {
      for (usize c = 0; c < C; ++c) {
        const float* src = dp + (c * dh + hi) * dw + wj;
        for (usize a = 0; a < k; ++a, src += dw, col += k) {
          for (usize b = 0; b < k; ++b) col[b] = src[b];
        }
      }
    }
  }
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
                ws.slot(&ws, Workspace::SlotKind::kActivation, 1), dy, dx, ws);
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
  record_act(x);
  const usize n = x.dim(0);
  y.resize({n, out_});
  // True-integer regime: quantize the input rows and run the int8 GEMM over
  // the raw weight codes -- no dequantized floats anywhere on the path.
  if (const Int8Pack& ip = int8_pack(); ip.panel != nullptr && simd::int8_enabled()) {
    const float sa =
        ip.act_scale > 0.0f ? ip.act_scale : gemm::activation_scale(x.data(), n, in_, in_);
    i8* qa = ws.qa_buffer(n * gemm::padded_k_int8(in_));
    gemm::quantize_activations(x.data(), n, in_, in_, sa, qa);
    gemm::gemm_nt_int8(n, out_, in_, qa, ip.panel, y.data(), out_, 1, bias.data(),
                       gemm::Bias::kPerCol, sa * ip.weight_scale);
    return;
  }
  // y = x W^T + b: both operands K-major, bias per output feature (column).
  gemm::gemm_nt(n, out_, in_, x.data(), in_, weight.data(), in_, y.data(), out_, bias.data(),
                gemm::Bias::kPerCol, ws);
}

void Dense::backward_into(const Tensor& x, const Tensor& /*y*/, const Tensor& dy, Tensor& dx,
                          Workspace& ws) {
  const usize n = x.dim(0);
  assert(dy.rank() == 2 && dy.dim(0) == n && dy.dim(1) == out_);
  dx.resize({n, in_});
  // dx = dy W: dx[i, j] reduces over ascending outputs o. The weight is the
  // transposed B operand, packed straight from its row-major layout.
  float* packed = ws.pack_buffer(gemm::packed_b_size(in_, std::max(out_, n)));
  gemm::pack_bt(weight.data(), in_, in_, out_, packed);
  gemm::gemm_nt_prepacked(n, in_, out_, dy.data(), out_, packed, dx.data(), in_, 1, nullptr,
                          gemm::Bias::kNone);
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
  return {{"weight", &weight, &dweight, /*quantizable=*/true, /*top_layer=*/0, this},
          {"bias", &bias, &dbias, /*quantizable=*/false, /*top_layer=*/0, this}};
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

void Conv2d::im2col(const Tensor& x, usize b, const ConvGeom& g, float* col) const {
  im2col_range(x, b, g, 0, g.oh * g.ow, col);
}

void Conv2d::im2col_range(const Tensor& x, usize b, const ConvGeom& g, usize p_lo,
                          usize p_hi, float* col) const {
  const float* xb = x.data() + b * g.in_ch * g.h * g.w;
  const usize K = g.patch_size();
  for (usize p = p_lo; p < p_hi; ++p) {
    const usize oi = p / g.ow, oj = p % g.ow;
    float* cp = col + p * K;
    for_each_patch_row(
        g, oi, oj,
        [&](usize kk_row, usize ic, usize hi, usize kj_lo, usize kj_hi, usize wj_lo,
            bool row_valid) {
          float* dst = cp + kk_row;
          if (!row_valid) {
            for (usize kj = 0; kj < k_; ++kj) dst[kj] = 0.0f;
            return;
          }
          // Spans are at most k (<= 3 in the zoo): an inline loop beats a
          // variable-size memcpy call.
          const float* src = xb + (ic * g.h + hi) * g.w + wj_lo;
          for (usize kj = 0; kj < kj_lo; ++kj) dst[kj] = 0.0f;
          for (usize kj = kj_lo; kj < kj_hi; ++kj) dst[kj] = src[kj - kj_lo];
          for (usize kj = kj_hi; kj < k_; ++kj) dst[kj] = 0.0f;
        });
  }
}

void Conv2d::gather_taps_i8(const i8* xq, const ConvGeom& g, i8* T) const {
  const usize K = g.patch_size();
  const usize P = g.oh * g.ow;
  // Small-image fast path (every conv in the zoo): copy each channel into a
  // zero-bordered padded plane once, after which EVERY (tap, output-row)
  // span is one unconditional 16-byte load/store -- no bounds branches and
  // no per-span libc calls, which otherwise dominate (taps * oh tiny
  // memcpy/memset calls per sample). The 16-byte stores overrun each ow-span
  // into bytes that ascending (oi, then k) iteration rewrites immediately
  // after; only the very last store runs past row K-1, into the quad-pad
  // rows (re-zeroed below) or the caller-provided 15-byte slack.
  constexpr usize kPaddedCap = 8192;
  const usize ph = g.h + 2 * g.pad, pw = g.w + 2 * g.pad;
  if (g.stride == 1 && g.ow <= 16 && g.in_ch * ph * pw + 16 <= kPaddedCap) {
    alignas(16) i8 pp[kPaddedCap];
    std::memset(pp, 0, g.in_ch * ph * pw);
    for (usize ic = 0; ic < g.in_ch; ++ic) {
      for (usize i = 0; i < g.h; ++i) {
        std::memcpy(pp + (ic * ph + i + g.pad) * pw + g.pad, xq + (ic * g.h + i) * g.w,
                    g.w);
      }
    }
    usize k = 0;
    for (usize ic = 0; ic < g.in_ch; ++ic) {
      const i8* base = pp + ic * ph * pw;
      for (usize ki = 0; ki < k_; ++ki) {
        for (usize kj = 0; kj < k_; ++kj, ++k) {
          // Padded coords: input row oi+ki, column offset kj (stride 1).
          const i8* src = base + ki * pw + kj;
          i8* row = T + k * P;
          for (usize oi = 0; oi < g.oh; ++oi) {
            __builtin_memcpy(row + oi * g.ow, src + oi * pw, 16);
          }
        }
      }
    }
    const usize K4 = gemm::padded_k_int8(K);
    if (K4 > K) std::memset(T + K * P, 0, (K4 - K) * P);
    return;
  }
  usize k = 0;
  for (usize ic = 0; ic < g.in_ch; ++ic) {
    const i8* plane = xq + ic * g.h * g.w;
    for (usize ki = 0; ki < k_; ++ki) {
      for (usize kj = 0; kj < k_; ++kj, ++k) {
        i8* row = T + k * P;
        for (usize oi = 0; oi < g.oh; ++oi) {
          i8* dst = row + oi * g.ow;
          const isize hi =
              static_cast<isize>(oi * g.stride + ki) - static_cast<isize>(g.pad);
          if (hi < 0 || hi >= static_cast<isize>(g.h)) {
            std::memset(dst, 0, g.ow);
            continue;
          }
          const i8* src_row = plane + static_cast<usize>(hi) * g.w;
          if (g.stride == 1) {
            // wj = oj + kj - pad sweeps a contiguous input span: one memcpy
            // per output row, zero-filled where it hangs over the padding.
            const isize wj0 = static_cast<isize>(kj) - static_cast<isize>(g.pad);
            const usize lo = wj0 < 0 ? static_cast<usize>(-wj0) : 0;
            const isize span_end = static_cast<isize>(g.w) - wj0;
            usize hi_oj = span_end < 0 ? 0
                                       : std::min(static_cast<usize>(span_end), g.ow);
            if (hi_oj < lo) hi_oj = lo;
            std::memset(dst, 0, lo);
            std::memcpy(dst + lo, src_row + wj0 + static_cast<isize>(lo), hi_oj - lo);
            std::memset(dst + hi_oj, 0, g.ow - hi_oj);
          } else {
            for (usize oj = 0; oj < g.ow; ++oj) {
              const isize wj =
                  static_cast<isize>(oj * g.stride + kj) - static_cast<isize>(g.pad);
              dst[oj] =
                  (wj >= 0 && wj < static_cast<isize>(g.w)) ? src_row[wj] : i8{0};
            }
          }
        }
      }
    }
  }
  const usize K4 = gemm::padded_k_int8(K);
  if (K4 > K) std::memset(T + K * P, 0, (K4 - K) * P);
}

void Conv2d::forward_into(const Tensor& x, Tensor& y, bool /*train*/, Workspace& ws) {
  assert(x.rank() == 4 && x.dim(1) == in_ch_);
  record_act(x);
  const usize n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const usize oh = out_size(h), ow = out_size(w);
  y.resize({n, out_ch_, oh, ow});
  // Lowering: per sample, y[oc, p] = bias[oc] + dot(col[p, :], W[oc, :]) over
  // the patch dimension. Patches stream as GEMM rows against the packed
  // weight panels (the small operand), and the strided store writes the NCHW
  // slice directly. The padded taps contribute exact zeros in the same
  // (ic, ki, kj) positions the naive loops skipped, so the accumulation is
  // bit-identical (adding a signed zero never changes a non-negative-zero
  // accumulator, and the accumulator can only be -0.0 if the bias is).
  const ConvGeom g = geom(h, w);
  const usize K = g.patch_size(), P = oh * ow;
  // True-integer regime: the sample's input slice is quantized ONCE (it is
  // a few hundred values; the col buffer repeats each up to k*k times), then
  // the tap-major code gather streams each tap's output plane as contiguous
  // byte spans and interleave_quads_i8 zips four taps at a time into the
  // GEMM's quad-major A panel -- byte-identical to quantizing a float
  // im2col, at a quarter of the gather traffic and none of the per-patch
  // scatter or rounding. The calibrated scale covers the patches (every
  // entry is an input value or an exact padding zero); the uncalibrated
  // fallback derives a per-sample scale from the input slice, which depends
  // only on that sample -- deterministic at any batch or patch split.
  const Int8Pack int8 = int8_pack();
  const bool use_int8 = int8.panel != nullptr && simd::int8_enabled();
  const usize teams = gemm::plan_teams(n, n * P * K * out_ch_);
  if (use_int8) {
    const usize K4 = gemm::padded_k_int8(K);
    const usize chw = in_ch_ * h * w;
    // qa holds the quad-major A panel [0, P*K4) and the tap-major gather
    // staging T [P*K4, 2*P*K4), plus the gather's 16-byte store slack.
    auto int8_sample = [&](usize b, i8* qx, i8* qa) {
      const float* xb = x.data() + b * chw;
      const float sa =
          int8.act_scale > 0.0f ? int8.act_scale : gemm::activation_scale(xb, 1, chw, chw);
      gemm::quantize_activations(xb, 1, chw, chw, sa, qx);
      i8* T = qa + P * K4;
      gather_taps_i8(qx, g, T);
      simd::interleave_quads_i8(T, P, K4 / 4, qa);
      gemm::gemm_nt_int8(P, out_ch_, K, qa, int8.panel, y.data() + b * out_ch_ * P, 1, P,
                         bias.data(), gemm::Bias::kPerCol, sa * int8.weight_scale);
    };
    if (teams > 1) {
      ws.reserve_team(teams);
      ThreadPool::instance().parallel(teams, [&](usize slot, usize nslots) {
        const usize chunk = (n + nslots - 1) / nslots;
        const usize lo = std::min(n, slot * chunk), hi = std::min(n, lo + chunk);
        if (lo >= hi) return;
        i8* qx = ws.qx_buffer(gemm::padded_k_int8(chw), slot);
        i8* qa = ws.qa_buffer(2 * P * K4 + 16, slot);
        for (usize b = lo; b < hi; ++b) int8_sample(b, qx, qa);
      });
      return;
    }
    // Single-probe batches run the per-sample GEMM's internal threading
    // instead; the quantize + gather ahead of it are byte-bound and cheap.
    i8* qx = ws.qx_buffer(gemm::padded_k_int8(chw));
    i8* qa = ws.qa_buffer(2 * P * K4 + 16);
    for (usize b = 0; b < n; ++b) int8_sample(b, qx, qa);
    return;
  }
  float* packed_w = ws.pack_buffer(gemm::packed_b_size(out_ch_, K));
  gemm::pack_b(weight.data(), K, out_ch_, K, packed_w);  // once, not per sample
  // One sample's lowered GEMM over an already-gathered col buffer.
  auto gemm_sample = [&](usize b, const float* col) {
    gemm::gemm_nt_prepacked(P, out_ch_, K, col, K, packed_w, y.data() + b * out_ch_ * P, 1,
                            P, bias.data(), gemm::Bias::kPerCol);
  };
  // Samples are independent GEMMs over disjoint output slices: partition the
  // batch into contiguous chunks across the team (per-slot col buffers), and
  // let the per-sample GEMM parallelise internally instead when the batch is
  // a single sample. Either split is bit-transparent.
  if (teams > 1) {
    ws.reserve_team(teams);
    ThreadPool::instance().parallel(teams, [&](usize slot, usize nslots) {
      const usize chunk = (n + nslots - 1) / nslots;
      const usize lo = std::min(n, slot * chunk), hi = std::min(n, lo + chunk);
      if (lo >= hi) return;
      float* col = ws.col_buffer(P * K, slot);
      for (usize b = lo; b < hi; ++b) {
        im2col(x, b, g, col);
        gemm_sample(b, col);
      }
    });
    return;
  }
  // Batch too small to split (a BFA probe forwards one sample at a time):
  // thread the im2col gather itself so patch materialization stops
  // serializing ahead of the threaded GEMM. Disjoint patch ranges write
  // disjoint rows of the one shared col buffer (sized here, OUTSIDE the
  // region, so no slot ever grows it), and every element is computed exactly
  // as the serial gather computes it -- byte-identical by construction.
  float* col = ws.col_buffer(P * K);
  const usize gather_teams = gemm::plan_teams(P, P * K);
  for (usize b = 0; b < n; ++b) {
    if (gather_teams > 1) {
      ThreadPool::instance().parallel(gather_teams, [&](usize slot, usize nslots) {
        const usize chunk = (P + nslots - 1) / nslots;
        const usize lo = std::min(P, slot * chunk), hi = std::min(P, lo + chunk);
        if (lo < hi) im2col_range(x, b, g, lo, hi, col);
      });
    } else {
      im2col(x, b, g, col);
    }
    gemm_sample(b, col);
  }
}

void Conv2d::backward_into(const Tensor& x, const Tensor& /*y*/, const Tensor& dy, Tensor& dx,
                           Workspace& ws) {
  const usize n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const ConvGeom g = geom(h, w);
  assert(dy.dim(2) == g.oh && dy.dim(3) == g.ow);
  const usize K = g.patch_size(), P = g.oh * g.ow, hw = h * w;
  const usize kk = k_ * k_, Kd = out_ch_ * kk;  ///< dx GEMM depth: (oc, a, b)
  dx.resize({n, in_ch_, h, w});

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
  // a plane that spreads dy by the stride and offsets it by k-1-pad.
  float* wf = ws.transpose_buffer(in_ch_ * Kd);
  for (usize ic = 0; ic < in_ch_; ++ic) {
    for (usize oc = 0; oc < out_ch_; ++oc) {
      const float* src = weight.data() + (oc * in_ch_ + ic) * kk;
      float* dst = wf + ic * Kd + oc * kk;
      for (usize t = 0; t < kk; ++t) dst[t] = src[kk - 1 - t];
    }
  }
  float* wpack = ws.pack_buffer(gemm::packed_b_size(in_ch_, Kd));
  gemm::pack_b(wf, Kd, in_ch_, Kd, wpack);
  // The same per-sample pass gathers the sample's input taps into the
  // whole-batch dweight operand (columns b*P .. b*P + P of every tap row).
  float* taps = ws.taps_buffer(K * n * P);
  const usize ph = h + 2 * pad_, pw = w + 2 * pad_, dh = h + k_ - 1, dw = w + k_ - 1;
  const usize xp_size = in_ch_ * ph * pw, dp_size = out_ch_ * dh * dw;
  const usize scratch = xp_size + dp_size + hw * Kd;
  const isize dy_off = static_cast<isize>(k_) - 1 - static_cast<isize>(pad_);
  auto sample = [&](usize b, float* xp) {
    float* dp = xp + xp_size;
    float* col = dp + dp_size;
    spread_planes(x.data() + b * in_ch_ * hw, in_ch_, h, w, 1, static_cast<isize>(pad_), ph,
                  pw, xp);
    (stride_ == 1 ? gather_taps<1> : gather_taps<0>)(xp, g, taps + b * P, n * P);
    spread_planes(dy.data() + b * out_ch_ * P, out_ch_, g.oh, g.ow, stride_, dy_off, dh, dw,
                  dp);
    (k_ == 3 ? gather_windows<3> : k_ == 1 ? gather_windows<1> : gather_windows<0>)(
        dp, out_ch_, k_, h, w, col);
    gemm::gemm_nt_prepacked(hw, in_ch_, Kd, col, Kd, wpack, dx.data() + b * in_ch_ * hw, 1,
                            hw, nullptr, gemm::Bias::kNone);
  };
  const usize teams = gemm::plan_teams(n, n * hw * in_ch_ * Kd);
  if (teams > 1) {
    ws.reserve_team(teams);
    ThreadPool::instance().parallel(teams, [&](usize slot, usize nslots) {
      const usize chunk = (n + nslots - 1) / nslots;
      const usize lo = std::min(n, slot * chunk), hi = std::min(n, lo + chunk);
      if (lo >= hi) return;
      float* s = ws.col_buffer(scratch, slot);
      for (usize b = lo; b < hi; ++b) sample(b, s);
    });
  } else {
    float* s = ws.col_buffer(scratch);
    for (usize b = 0; b < n; ++b) sample(b, s);
  }

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
  return {{"weight", &weight, &dweight, /*quantizable=*/true, /*top_layer=*/0, this},
          {"bias", &bias, &dbias, /*quantizable=*/false, /*top_layer=*/0, this}};
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
/// dead unit.
void relu_mask_into(const Tensor& y, const Tensor& dy, Tensor& dx) {
  assert(dy.size() == y.size());
  dx.resize(dy.shape());
  for (usize i = 0; i < dy.size(); ++i) dx[i] = dy[i] * (y[i] > 0.0f ? 1.0f : 0.0f);
}

}  // namespace

void ReLU::backward_into(const Tensor& /*x*/, const Tensor& y, const Tensor& dy, Tensor& dx,
                         Workspace& /*ws*/) {
  relu_mask_into(y, dy, dx);
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
                              Tensor& dx, Workspace& /*ws*/) {
  // Re-runs the forward's scan over x to find each window's chosen element.
  dx.resize(x.shape());
  dx.zero();
  for_each_pool_window(x, [&](usize out_idx, usize idx, float /*best*/) {
    dx[idx] += dy[out_idx];
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
                                  Tensor& dx, Workspace& /*ws*/) {
  const usize n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  dx.resize(x.shape());
  const float inv = 1.0f / static_cast<float>(hw);
  for (usize b = 0; b < n; ++b) {
    for (usize ch = 0; ch < c; ++ch) {
      const float g = dy.at2(b, ch) * inv;
      float* p = dx.data() + (b * c + ch) * hw;
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

void Flatten::backward_into(const Tensor& x, const Tensor& /*y*/, const Tensor& dy, Tensor& dx,
                            Workspace& /*ws*/) {
  dx.resize(x.shape());
  std::memcpy(dx.data(), dy.data(), dy.size() * sizeof(float));
}

// ---------------------------------------------------------- BatchNorm2d ----

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
            const float* p = x.data() + (b * c + ch) * hw;
            float* yp = y.data() + (b * c + ch) * hw;
            for (usize i = 0; i < hw; ++i) {
              const float xh = (p[i] - mean_f) * inv_std;
              yp[i] = gamma[ch] * xh + beta[ch];
            }
          }
        }
      });
}

void BatchNorm2d::backward_into(const Tensor& x, const Tensor& /*y*/, const Tensor& dy,
                                Tensor& dx, Workspace& ws) {
  const usize n = x.dim(0), c = channels_, hw = x.dim(2) * x.dim(3);
  const double count = static_cast<double>(n * hw);
  const Tensor& stats = ws.slot(this, Workspace::SlotKind::kScratch, 0);
  assert(stats.size() == 2 * c);
  const float* batch_mean = stats.data();
  const float* batch_inv_std = stats.data() + c;
  dx.resize(x.shape());
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
          const float g = gamma[ch];
          for (usize b = 0; b < n; ++b) {
            const float* p = x.data() + (b * c + ch) * hw;
            const float* gy = dy.data() + (b * c + ch) * hw;
            float* gx = dx.data() + (b * c + ch) * hw;
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

const Tensor& Sequential::forward_from(usize first_changed, bool train, Workspace& ws) {
  if (cache_ws_ != &ws) {
    throw std::logic_error(
        "Sequential::forward_from: no cached forward to reuse in this workspace");
  }
  // Activations beyond the clean frontier may carry an earlier probe's
  // perturbation; restart from whichever is earlier.
  const usize start = std::min(first_changed, clean_frontier_);
  const Tensor* in = &ws.slot(this, Workspace::SlotKind::kActivation, start);
  for (usize i = start; i < layers_.size(); ++i) {
    Tensor& out = ws.slot(this, Workspace::SlotKind::kActivation, i + 1);
    layers_[i]->forward_into(*in, out, train, ws);
    in = &out;
  }
  clean_frontier_ = std::min(first_changed, layers_.size());
  return *in;
}

const Tensor& Sequential::backward_cached(const Tensor& dy, Workspace& ws) {
  const Tensor* g = &dy;
  for (usize i = layers_.size(); i-- > 0;) {
    Tensor& gx = ws.slot(this, Workspace::SlotKind::kGradient, i);
    layers_[i]->backward_into(ws.slot(this, Workspace::SlotKind::kActivation, i),
                              ws.slot(this, Workspace::SlotKind::kActivation, i + 1), *g, gx,
                              ws);
    g = &gx;
  }
  return *g;
}

void Sequential::forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) {
  y = forward_cached(x, train, ws);
}

void Sequential::backward_into(const Tensor& /*x*/, const Tensor& /*y*/, const Tensor& dy,
                               Tensor& dx, Workspace& ws) {
  dx = backward_cached(dy, ws);
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
      // index within the model's top-level net -- the forward_from argument.
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
                                  Tensor& dx, Workspace& ws) {
  Tensor& dsum = ws.slot(this, Workspace::SlotKind::kScratch, 0);
  relu_mask_into(y, dy, dsum);
  dx = body_.backward_cached(dsum, ws);
  if (projection_) {
    dx.add_(projection_->backward_cached(dsum, ws));
  } else {
    dx.add_(dsum);
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
