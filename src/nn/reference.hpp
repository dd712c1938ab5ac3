// Retained naive reference kernels: verbatim copies of the original
// hand-rolled Dense/Conv2d forward and backward loops that the GEMM engine
// replaced.
//
// They are test oracles only: tests/test_gemm.cpp property-checks the
// GEMM-lowered forward and backward against them for
// bitwise-identical outputs over randomized shapes. No production path calls
// them.
#pragma once

#include "nn/tensor.hpp"

namespace dnnd::nn::reference {

/// y[i,o] = bias[o] + sum_j weight[o,j] * x[i,j]. `y` must be {N, out}.
void dense_forward(const Tensor& x, const Tensor& weight, const Tensor& bias, Tensor& y);

/// NCHW convolution, square kernel. `y` must be pre-sized {N, out_ch, oh, ow}.
void conv2d_forward(const Tensor& x, const Tensor& weight, const Tensor& bias, usize stride,
                    usize pad, Tensor& y);

/// Dense backward: dx = dy W (written; `dx` must be pre-sized {N, in}),
/// dweight += dy^T x, dbias += column sums of dy. Terms with dy == 0 are
/// skipped; every accumulator advances over ascending samples (dweight,
/// dbias) or ascending outputs (dx).
void dense_backward(const Tensor& dy, const Tensor& x, const Tensor& weight, Tensor& dx,
                    Tensor& dweight, Tensor& dbias);

/// Conv2d backward (square kernel, NCHW): dx written (`dx` must be pre-sized
/// like x), dweight/dbias accumulated. Terms with dy == 0 and padded taps are
/// skipped; dweight/dbias advance over ascending (sample, output position),
/// each dx element over ascending (output channel, output position).
void conv2d_backward(const Tensor& dy, const Tensor& x, const Tensor& weight, usize stride,
                     usize pad, Tensor& dx, Tensor& dweight, Tensor& dbias);

}  // namespace dnnd::nn::reference
