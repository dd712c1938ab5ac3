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
// fused multiply-add: there is one float regime, and it is byte-gated.
//
// The second numeric regime is the true-integer int8 path (DNND_INT8=1):
// u8xs8 -> s16 -> s32 microkernels over raw weight codes with int32
// accumulators and a float requantization epilogue. Integer addition is
// associative, so unlike the float kernels the AVX2 and scalar int8 variants
// are byte-identical *by arithmetic* (no accumulation-order argument needed)
// -- which is exactly what the scalar-vs-AVX2 byte gate in tests/test_gemm.cpp
// pins. The regime as a whole diverges from the float path (activations are
// rounded to 8 bits) and is excluded from every float byte gate; it is
// validated by a per-layer tolerance bound and a campaign accuracy-delta gate
// instead.
//
// Knobs (resolved per kernel selection, overridable in-process):
//   DNND_SIMD=0   force the scalar microkernels (CI's forced-scalar leg)
//   DNND_INT8=1   true-integer int8 forward for layers with quantized weights
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

/// Tri-state in-process overrides, mirroring gemm::set_threads's
/// save/restore idiom: -1 follows the env var (the default), 0/1 pin the
/// knob regardless of the environment. Process-global and cheap to flip;
/// bench_inference A/Bs through these.
void set_scalar_override(int v);              ///< -1 env, 0 simd on, 1 force scalar
[[nodiscard]] int scalar_override();
[[nodiscard]] bool force_scalar();            ///< resolved DNND_SIMD knob
void set_int8_override(int v);                ///< -1 env, 0 off, 1 integer path
[[nodiscard]] int int8_override();
[[nodiscard]] bool int8_enabled();            ///< resolved DNND_INT8 knob

// ---- true-integer int8 microkernels -----------------------------------------
// Both operands are quad-grouped panels of raw int8 codes. The B panel line
// for k-quad `kq` holds 32 bytes -- column r's codes for k = 4*kq .. 4*kq+3
// at bytes [r*4, r*4+4). The A operand is QUAD-MAJOR (gemm::packed_a_q8):
// all rows' codes for one k-quad are contiguous, so the eight row-quads a
// register tile needs are a single 32-byte line at `a + kq*astride + i*4`.
// A kernel step accumulates one quad:
//
//     acc[r] += a[4kq]*w[r][4kq] + ... + a[4kq+3]*w[r][4kq+3]   (int32)
//
// The AVX2 variant broadcasts the A quad and uses maddubs/madd with the
// WEIGHT as the unsigned operand (|w| <= 128 is valid u8; activations are
// clamped to [-127, 127] at quantization, so sign-transfer never negates
// -128 and the s16 pair sums stay below 2*128*127 = 32512 < 32767 -- no
// saturation, exact integer math, byte-identical to the scalar loop).
// Requantization back to float happens in the GEMM epilogue, not here.

/// 8x8 int8 register tile over `KQ` k-quads: acc[i*8 + r] += dot of A row
/// i's quad and panel column r's quad, int32 exact. `a` points at row 0's
/// first quad; row i's quad kq lives at a + kq*astride + i*4 (quad-major A,
/// astride = 4 * total panel rows). `acc` holds the 64 contiguous int32
/// accumulators.
using I8Tile8Fn = void (*)(usize KQ, const i8* a, usize astride, const i8* panel, i32* acc);

/// Single-row remainder of the int8 tile (row quad kq at a + kq*astride).
using I8Row1Fn = void (*)(usize KQ, const i8* a, usize astride, const i8* panel, i32* acc);

/// A resolved int8 microkernel pair. Only AVX2 has a vector variant (NEON
/// falls back to the scalar reference); both produce identical bytes.
struct I8Kernels {
  I8Tile8Fn tile8;
  I8Row1Fn row1;
  Isa isa;
};

/// The int8 microkernels the integer GEMM should use right now: AVX2 when
/// supported and not forced scalar, else the scalar reference.
[[nodiscard]] I8Kernels active_int8_kernels();

/// Quantize M rows of K floats (row stride `lda`) to int8 codes written
/// directly into the quad-major packed A panel (gemm::packed_a_q8_index):
///
///     out[(k/4)*M*4 + m*4 + k%4] = round(clamp(A[m*lda + k] * inv, -127, 127))
///
/// with round-to-nearest, ties away from zero (the weight quantizer's
/// rounding); K is padded to whole quads with zero codes. The clamp runs
/// BEFORE the round and stops one short of -128 so the AVX2 GEMM kernel's
/// sign transfer can never negate INT8_MIN. Both variants perform the
/// identical IEEE op sequence (multiply, min/max clamp, add copysign(0.5),
/// truncate) element-wise, so the AVX2 and scalar paths are byte-identical
/// by construction; dispatch happens once per call and follows
/// force_scalar() like the GEMM kernels so the byte gates exercise both.
void quantize_panel_i8(const float* A, usize M, usize K, usize lda, float inv, i8* out);

/// Interleave KQ groups of four row-major byte rows into the quad-major
/// packed A panel: T holds 4*KQ rows of P bytes each (row k = code k of all
/// P panel rows -- the TRANSPOSE of the logical A, as a conv tap gather
/// naturally produces); out[(kq*P + p)*4 + j] = T[(4*kq + j)*P + p]. Pure
/// data movement (no arithmetic), so the SSE2 fast path on x86 -- baseline,
/// no dispatch -- is trivially byte-identical to the portable loop.
void interleave_quads_i8(const i8* T, usize P, usize KQ, i8* out);

}  // namespace dnnd::nn::simd
