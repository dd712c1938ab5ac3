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
// Knob (resolved per kernel selection, overridable in-process):
//   DNND_SIMD=0   force the scalar microkernels (CI's forced-scalar leg)
#pragma once

#include "sys/types.hpp"

namespace dnnd::nn::simd {

/// Instruction set a microkernel pair was compiled for. Runtime dispatch
/// picks the best one the CPU supports (AVX2 via cpuid on x86, NEON on
/// aarch64) unless forced scalar.
enum class Isa : u32 { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Stable lowercase name ("scalar", "avx2", "neon") -- the `simd` field of
/// the bench_inference JSON.
[[nodiscard]] const char* isa_name(Isa isa);

/// 8x8 register-tile microkernel: for k ascending then i in [0,8),
/// acc[i*8 + r] += a[i][k] * panel[k*8 + r] for all eight lanes r.
/// `a` holds the eight A-row pointers, `panel` the 8-wide interleaved B
/// panel, `acc` the 64 contiguous accumulators.
using Tile8Fn = void (*)(usize K, const float* const* a, const float* panel, float* acc);

/// Single-row remainder: acc[r] += a[k] * panel[k*8 + r], k ascending.
using Row1Fn = void (*)(usize K, const float* a, const float* panel, float* acc);

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
