// Conv2d geometry (ConvGeom), shared by every Conv2d pass and by the naive
// reference loops (nn/reference.cpp). The engine's own lowering needs no
// bounds tests: its GEMMs read zero-bordered copies of the planes through
// offset tables (nn/layers.cpp).
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

}  // namespace dnnd::nn
