// Conv2d geometry (ConvGeom, shared by every Conv2d pass) and the
// bounds-checked patch-row iteration of the naive reference loops
// (nn/reference.cpp). The engine's own lowering needs no bounds tests: its
// GEMMs read zero-bordered copies of the planes through offset tables
// (nn/layers.cpp).
#pragma once

#include "sys/types.hpp"

namespace dnnd::nn {

/// Geometry of one Conv2d application (square kernel, NCHW).
struct ConvGeom {
  usize in_ch = 0;
  usize k = 0;       ///< kernel size
  usize stride = 1;
  usize pad = 0;
  usize h = 0, w = 0;    ///< input spatial dims
  usize oh = 0, ow = 0;  ///< output spatial dims

  [[nodiscard]] usize patch_size() const { return in_ch * k * k; }
};

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
inline void for_each_patch_row(const ConvGeom& g, usize oi, usize oj, Fn&& fn) {
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

}  // namespace dnnd::nn
