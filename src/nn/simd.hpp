// Explicit SIMD microkernels for the GEMM register tiles, with runtime ISA
// dispatch (AVX2 / NEON / scalar).
//
// The GEMM's 8-wide packed panels put one output COLUMN in each vector lane:
// a microkernel step broadcasts one A element and does lane-wise
//
//     acc[r] = acc[r] + a_val * panel[k*8 + r]        (r = 0..7)
//
// with a distinct, non-contracted IEEE multiply and add per lane -- exactly
// the operations, on exactly the operands, in exactly the order of the
// scalar loop `for r: acc[r] += av * p[r]`. Vectorizing ACROSS the eight
// independent accumulators (never within one reduction) means no terms are
// ever reassociated or fused, so the SIMD path is byte-identical to the
// scalar path by construction, on every ISA. The build pins
// -ffp-contract=off so the scalar path cannot silently become fused either
// (tests/test_gemm.cpp sweeps simd-vs-scalar byte equality over randomized
// shapes; the campaign baseline gates it end to end). No kernel here uses a
// fused multiply-add: there is one numeric regime, and it is byte-gated.
//
// A microkernel reads its A operand through an offset table: element k of
// A row i is a[i][koff[k]], where a[i] is the row's base pointer and koff
// the k-offset table the whole GEMM call shares. A contiguous row is the
// identity table; Conv2d's rows are windows over zero-bordered planes, so
// the table holds each tap's offset within the window and no patch matrix
// is ever gathered (nn/gemm.hpp).
//
// A microkernel also owns its accumulators' start and store: it starts them
// at +0, at the column's bias or at the current C element, and stores C
// straight from registers. A row-major C (column stride 1) is stored one row
// per register; a column-major C (row stride 1, Conv2d's NCHW outputs and
// its weight gradient) goes through an in-register 8x8 transpose and is
// stored one column per register. Moving values between lanes never
// touches their bits.
//
// Knob (resolved per kernel selection, overridable in-process):
//   DNND_SIMD=0   force the scalar microkernels (CI's forced-scalar leg)
#pragma once

#include "nn/gemm.hpp"
#include "sys/types.hpp"

namespace dnnd::nn::simd {

/// Instruction set a microkernel pair was compiled for. Runtime dispatch
/// picks the best one the CPU supports (AVX2 via cpuid on x86, NEON on
/// aarch64) unless forced scalar.
enum class Isa : u32 { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Stable lowercase name ("scalar", "avx2", "neon") -- the `simd` field of
/// the bench_inference JSON.
[[nodiscard]] const char* isa_name(Isa isa);

/// One register tile of the GEMM: up to eight A rows against one 8-column
/// B panel, writing C[i, r] = c[i * crs + r * ccs] for the tile's rows i and
/// its `cols` valid columns r. One of crs and ccs is 1. Lanes past `cols`
/// are computed from the panel's zero padding and never stored.
struct Tile {
  usize K = 0;
  const u32* koff = nullptr;      ///< A[i, k] = a[i][koff[k]], K entries
  const float* panel = nullptr;   ///< 8-wide interleaved B panel, K lines
  float* c = nullptr;             ///< C of tile row 0, panel column 0
  usize crs = 0, ccs = 0;
  usize cols = 0;                 ///< valid panel columns, 1..8
  const float* bias = nullptr;    ///< kPerCol: bias of panel column 0
  gemm::Bias start = gemm::Bias::kNone;
};

/// 8x8 register tile: for k ascending then i in [0,8),
/// acc[i][r] += a[i][koff[k]] * panel[k*8 + r] for all eight lanes r.
using Tile8Fn = void (*)(const Tile& t, const float* const* a);

/// Single-row remainder: acc[r] += a[koff[k]] * panel[k*8 + r], k ascending.
using Row1Fn = void (*)(const Tile& t, const float* a);

/// A resolved microkernel pair plus what it was resolved to.
struct Kernels {
  Tile8Fn tile8;
  Row1Fn row1;
  Isa isa;
};

/// The microkernels the GEMM should use right now: best supported ISA,
/// downgraded by the scalar override / DNND_SIMD=0.
[[nodiscard]] Kernels active_kernels();

/// The ISA active_kernels() currently resolves to (knobs applied).
[[nodiscard]] Isa active_isa();

/// Best ISA this CPU supports, ignoring every knob.
[[nodiscard]] Isa best_isa();

/// Tri-state in-process override, mirroring gemm::set_threads's
/// save/restore idiom: -1 follows the env var (the default), 0/1 pin the
/// knob regardless of the environment. Process-global and cheap to flip;
/// bench_inference A/Bs through these.
void set_scalar_override(int v);  ///< -1 env, 0 simd on, 1 force scalar
[[nodiscard]] int scalar_override();
[[nodiscard]] bool force_scalar();  ///< resolved DNND_SIMD knob

}  // namespace dnnd::nn::simd
