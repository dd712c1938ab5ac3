#include "nn/reference.hpp"

#include <cassert>

#include "nn/conv_patch.hpp"

namespace dnnd::nn::reference {

namespace {

/// Invokes fn(kk_row, ic, hi, kj_lo, kj_hi, wj_lo, row_valid) for every
/// kernel row (ic, ki) of output pixel (oi, oj):
///   kk_row        flat patch index of the row's first tap kj=0 (also the
///                 flat offset into one output-channel slice of the weight)
///   hi            input row of this kernel row (meaningless when invalid)
///   [kj_lo,kj_hi) the kj taps that land inside the input; they map to the
///                 contiguous input columns starting at wj_lo (consecutive kj
///                 always hit consecutive wj, for any stride)
///   row_valid     false when the whole kernel row falls into the padding
///                 (then kj_lo == kj_hi == 0)
/// Rows are visited in ascending kk -- the accumulation order of the
/// naive loops, which the GEMM lowering preserves bit-exactly.
template <typename Fn>
void for_each_patch_row(const ConvGeom& g, usize oi, usize oj, Fn&& fn) {
  const isize pad = static_cast<isize>(g.pad);
  const isize wj0 = static_cast<isize>(oj * g.stride) - pad;  // wj of tap kj=0
  // Valid kj range: 0 <= wj0 + kj < w.
  const isize lo = wj0 < 0 ? -wj0 : 0;
  isize hi_excl = static_cast<isize>(g.w) - wj0;
  if (hi_excl > static_cast<isize>(g.k)) hi_excl = static_cast<isize>(g.k);
  const bool cols_valid = hi_excl > lo;
  const usize kj_lo = cols_valid ? static_cast<usize>(lo) : 0;
  const usize kj_hi = cols_valid ? static_cast<usize>(hi_excl) : 0;
  const usize wj_lo = cols_valid ? static_cast<usize>(wj0 + lo) : 0;
  usize kk_row = 0;
  for (usize ic = 0; ic < g.in_ch; ++ic) {
    for (usize ki = 0; ki < g.k; ++ki, kk_row += g.k) {
      const isize hi = static_cast<isize>(oi * g.stride + ki) - pad;
      const bool row_valid = cols_valid && hi >= 0 && hi < static_cast<isize>(g.h);
      fn(kk_row, ic, row_valid ? static_cast<usize>(hi) : 0, row_valid ? kj_lo : 0,
         row_valid ? kj_hi : 0, wj_lo, row_valid);
    }
  }
}

}  // namespace

void dense_forward(const Tensor& x, const Tensor& weight, const Tensor& bias, Tensor& y) {
  const usize n = x.dim(0), in = x.dim(1), out = weight.dim(0);
  assert(y.dim(0) == n && y.dim(1) == out);
  for (usize i = 0; i < n; ++i) {
    const float* xi = x.data() + i * in;
    for (usize o = 0; o < out; ++o) {
      const float* w = weight.data() + o * in;
      float acc = bias[o];
      for (usize j = 0; j < in; ++j) acc += w[j] * xi[j];
      y.at2(i, o) = acc;
    }
  }
}

void conv2d_forward(const Tensor& x, const Tensor& weight, const Tensor& bias, usize stride,
                    usize pad, Tensor& y) {
  const usize n = x.dim(0), in_ch = x.dim(1), h = x.dim(2), w = x.dim(3);
  const usize out_ch = weight.dim(0), k = weight.dim(2);
  const usize oh = y.dim(2), ow = y.dim(3);
  assert(y.dim(0) == n && y.dim(1) == out_ch && weight.dim(1) == in_ch);
  for (usize b = 0; b < n; ++b) {
    for (usize oc = 0; oc < out_ch; ++oc) {
      for (usize i = 0; i < oh; ++i) {
        for (usize j = 0; j < ow; ++j) {
          float acc = bias[oc];
          for (usize ic = 0; ic < in_ch; ++ic) {
            for (usize ki = 0; ki < k; ++ki) {
              const isize hi = static_cast<isize>(i * stride + ki) - static_cast<isize>(pad);
              if (hi < 0 || hi >= static_cast<isize>(h)) continue;
              for (usize kj = 0; kj < k; ++kj) {
                const isize wj = static_cast<isize>(j * stride + kj) - static_cast<isize>(pad);
                if (wj < 0 || wj >= static_cast<isize>(w)) continue;
                acc += weight.at4(oc, ic, ki, kj) *
                       x.at4(b, ic, static_cast<usize>(hi), static_cast<usize>(wj));
              }
            }
          }
          y.at4(b, oc, i, j) = acc;
        }
      }
    }
  }
}

void dense_backward(const Tensor& dy, const Tensor& x, const Tensor& weight, Tensor& dx,
                    Tensor& dweight, Tensor& dbias) {
  const usize n = x.dim(0), in = x.dim(1), out = weight.dim(0);
  assert(dy.dim(0) == n && dy.dim(1) == out && dx.dim(0) == n && dx.dim(1) == in);
  dx.zero();
  for (usize i = 0; i < n; ++i) {
    const float* xi = x.data() + i * in;
    float* dxi = dx.data() + i * in;
    for (usize o = 0; o < out; ++o) {
      const float g = dy.at2(i, o);
      if (g == 0.0f) continue;
      const float* w = weight.data() + o * in;
      float* dw = dweight.data() + o * in;
      dbias[o] += g;
      for (usize j = 0; j < in; ++j) {
        dw[j] += g * xi[j];
        dxi[j] += g * w[j];
      }
    }
  }
}

void conv2d_backward(const Tensor& dy, const Tensor& x, const Tensor& weight, usize stride,
                     usize pad, Tensor& dx, Tensor& dweight, Tensor& dbias) {
  const usize n = x.dim(0);
  const ConvGeom g{x.dim(1), weight.dim(2), stride, pad, x.dim(2), x.dim(3), dy.dim(2),
                   dy.dim(3)};
  const usize K = g.patch_size();
  assert(dx.shape() == x.shape() && weight.dim(1) == g.in_ch);
  dx.zero();
  for (usize b = 0; b < n; ++b) {
    const float* xb = x.data() + b * g.in_ch * g.h * g.w;
    float* dxb = dx.data() + b * g.in_ch * g.h * g.w;
    for (usize oc = 0; oc < weight.dim(0); ++oc) {
      float* dwoc = dweight.data() + oc * K;
      const float* woc = weight.data() + oc * K;
      for (usize i = 0; i < g.oh; ++i) {
        for (usize j = 0; j < g.ow; ++j) {
          const float gy = dy.at4(b, oc, i, j);
          if (gy == 0.0f) continue;
          dbias[oc] += gy;
          for_each_patch_row(
              g, i, j,
              [&](usize kk_row, usize ic, usize hi, usize kj_lo, usize kj_hi, usize wj_lo,
                  bool row_valid) {
                if (!row_valid) return;
                const float* xrow = xb + (ic * g.h + hi) * g.w + wj_lo;
                float* dxrow = dxb + (ic * g.h + hi) * g.w + wj_lo;
                float* dwrow = dwoc + kk_row + kj_lo;
                const float* wrow = woc + kk_row + kj_lo;
                const usize span = kj_hi - kj_lo;
                for (usize t = 0; t < span; ++t) {
                  dwrow[t] += gy * xrow[t];
                  dxrow[t] += gy * wrow[t];
                }
              });
        }
      }
    }
  }
}

}  // namespace dnnd::nn::reference
