#include "nn/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "sys/env.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DNND_SIMD_X86 1
#endif

#if defined(__aarch64__)
#include <arm_neon.h>
#define DNND_SIMD_NEON 1
#endif

namespace dnnd::nn::simd {

namespace {

constexpr usize kNr = 8;  ///< lanes per panel line, matching gemm's panel width
constexpr usize kMr = 8;  ///< A rows per register tile

// ---- scalar reference microkernels -----------------------------------------
// These ARE the semantics: every other variant below performs the same IEEE
// multiply and add per (i, k, r), k strictly ascending per accumulator. The
// build compiles with -ffp-contract=off, so `acc += av * p[r]` can never be
// silently fused into an FMA behind the contract's back.

void tile8_scalar(usize K, const float* const* a, const float* panel, float* acc) {
  for (usize k = 0; k < K; ++k, panel += kNr) {
    for (usize i = 0; i < kMr; ++i) {
      const float av = a[i][k];
      float* c = acc + i * kNr;
      for (usize r = 0; r < kNr; ++r) c[r] += av * panel[r];
    }
  }
}

void row1_scalar(usize K, const float* a, const float* panel, float* acc) {
  for (usize k = 0; k < K; ++k, panel += kNr) {
    const float av = a[k];
    for (usize r = 0; r < kNr; ++r) acc[r] += av * panel[r];
  }
}

// ---- AVX2 -------------------------------------------------------------------
// One ymm register per A row holds all eight column accumulators; each k step
// loads one panel line and broadcasts one A element per row. mul then add as
// two distinct instructions keeps the two-rounding scalar semantics.

#ifdef DNND_SIMD_X86

__attribute__((target("avx2"))) void tile8_avx2(usize K, const float* const* a,
                                                const float* panel, float* acc) {
  __m256 c[kMr];
  for (usize i = 0; i < kMr; ++i) c[i] = _mm256_loadu_ps(acc + i * kNr);
  for (usize k = 0; k < K; ++k, panel += kNr) {
    const __m256 b = _mm256_loadu_ps(panel);
    for (usize i = 0; i < kMr; ++i) {
      c[i] = _mm256_add_ps(c[i], _mm256_mul_ps(_mm256_set1_ps(a[i][k]), b));
    }
  }
  for (usize i = 0; i < kMr; ++i) _mm256_storeu_ps(acc + i * kNr, c[i]);
}

__attribute__((target("avx2"))) void row1_avx2(usize K, const float* a, const float* panel,
                                               float* acc) {
  __m256 c = _mm256_loadu_ps(acc);
  for (usize k = 0; k < K; ++k, panel += kNr) {
    c = _mm256_add_ps(c, _mm256_mul_ps(_mm256_set1_ps(a[k]), _mm256_loadu_ps(panel)));
  }
  _mm256_storeu_ps(acc, c);
}

#endif  // DNND_SIMD_X86

// ---- int8 microkernels ------------------------------------------------------
// Scalar reference: int32 accumulation is exact and associative, so any
// reordering (including the AVX2 variant's lane assignment) produces the
// same bytes -- the simd-vs-scalar byte gate needs no accumulation-order
// argument here, only that every variant sums the same products.

constexpr usize kQuad = 4;  ///< codes per panel quad (one maddubs/madd step)

void i8_tile8_scalar(usize KQ, const i8* a, usize astride, const i8* panel, i32* acc) {
  for (usize kq = 0; kq < KQ; ++kq, panel += kNr * kQuad, a += astride) {
    for (usize i = 0; i < kMr; ++i) {
      const i8* ai = a + i * kQuad;
      i32* c = acc + i * kNr;
      for (usize r = 0; r < kNr; ++r) {
        const i8* w = panel + r * kQuad;
        c[r] += static_cast<i32>(ai[0]) * w[0] + static_cast<i32>(ai[1]) * w[1] +
                static_cast<i32>(ai[2]) * w[2] + static_cast<i32>(ai[3]) * w[3];
      }
    }
  }
}

void i8_row1_scalar(usize KQ, const i8* a, usize astride, const i8* panel, i32* acc) {
  for (usize kq = 0; kq < KQ; ++kq, panel += kNr * kQuad, a += astride) {
    for (usize r = 0; r < kNr; ++r) {
      const i8* w = panel + r * kQuad;
      acc[r] += static_cast<i32>(a[0]) * w[0] + static_cast<i32>(a[1]) * w[1] +
                static_cast<i32>(a[2]) * w[2] + static_cast<i32>(a[3]) * w[3];
    }
  }
}

#ifdef DNND_SIMD_X86

// One panel line = 32 bytes = 8 columns x 4 k-codes; maddubs wants an
// unsigned first operand, so the WEIGHT bytes go through abs (|-128| = 128
// is a valid u8) and the sign transfers onto the broadcast activation quad
// via sign_epi8 -- safe because activations are clamped to [-127, 127], so
// the negation can never wrap. madd then folds the two s16 pair-sums per
// column into the s32 lane; pair sums are bounded by 2*128*127 = 32512, so
// maddubs never saturates and the arithmetic is exact.

__attribute__((target("avx2"))) inline __m256i i8_quad_product(__m256i wv, __m256i wabs,
                                                               const i8* a_quad) {
  u32 quad;
  __builtin_memcpy(&quad, a_quad, sizeof(quad));
  const __m256i av = _mm256_set1_epi32(static_cast<int>(quad));
  const __m256i pair = _mm256_maddubs_epi16(wabs, _mm256_sign_epi8(av, wv));
  return _mm256_madd_epi16(pair, _mm256_set1_epi16(1));
}

__attribute__((target("avx2"))) void i8_tile8_avx2(usize KQ, const i8* a, usize astride,
                                                   const i8* panel, i32* acc) {
  __m256i c[kMr];
  for (usize i = 0; i < kMr; ++i) {
    c[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i * kNr));
  }
  for (usize kq = 0; kq < KQ; ++kq, panel += kNr * kQuad, a += astride) {
    const __m256i wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(panel));
    const __m256i wabs = _mm256_abs_epi8(wv);
    for (usize i = 0; i < kMr; ++i) {
      c[i] = _mm256_add_epi32(c[i], i8_quad_product(wv, wabs, a + i * kQuad));
    }
  }
  for (usize i = 0; i < kMr; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i * kNr), c[i]);
  }
}

__attribute__((target("avx2"))) void i8_row1_avx2(usize KQ, const i8* a, usize astride,
                                                  const i8* panel, i32* acc) {
  __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc));
  for (usize kq = 0; kq < KQ; ++kq, panel += kNr * kQuad, a += astride) {
    const __m256i wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(panel));
    c = _mm256_add_epi32(c, i8_quad_product(wv, _mm256_abs_epi8(wv), a));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc), c);
}

#endif  // DNND_SIMD_X86

// ---- int8 activation quantization -------------------------------------------
// dst[i] = trunc(clamp(src[i]*inv, -127, 127) + copysign(0.5, .)) -- round to
// nearest, ties away from zero. Multiply, min/max, add, and truncation are
// all exactly-specified IEEE ops applied element-wise in the same order by
// both variants, so scalar and AVX2 produce identical bytes on any input.
// (For |v| <= 127 the +-0.5 addition is exact -- 0.5 is a multiple of the
// ulp at that magnitude -- so trunc(v + copysign(0.5, v)) == lround(v).)

inline i8 quantize_code(float x, float inv) {
  float v = x * inv;
  v = std::min(std::max(v, -127.0f), 127.0f);
  return static_cast<i8>(static_cast<int>(v + std::copysign(0.5f, v)));
}

/// Quad-major panel slot of code (m, k): mirrors gemm::packed_a_q8_index
/// (which cannot be used here -- simd sits below gemm).
inline usize a_panel_slot(usize m, usize k, usize M) {
  return (k / kQuad) * M * kQuad + m * kQuad + k % kQuad;
}

void quantize_panel_i8_scalar(const float* A, usize M, usize K, usize lda, float inv,
                              i8* out) {
  const usize K4 = (K + kQuad - 1) & ~(kQuad - 1);
  for (usize m = 0; m < M; ++m) {
    const float* src = A + m * lda;
    for (usize k = 0; k < K; ++k) out[a_panel_slot(m, k, M)] = quantize_code(src[k], inv);
    for (usize k = K; k < K4; ++k) out[a_panel_slot(m, k, M)] = 0;
  }
}

#ifdef DNND_SIMD_X86

__attribute__((target("avx2"))) void quantize_panel_i8_avx2(const float* A, usize M, usize K,
                                                            usize lda, float inv, i8* out) {
  const usize K4 = (K + kQuad - 1) & ~(kQuad - 1);
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 lo = _mm256_set1_ps(-127.0f), hi = _mm256_set1_ps(127.0f);
  const __m256 sign_mask = _mm256_set1_ps(-0.0f), half = _mm256_set1_ps(0.5f);
  const usize quad_stride = M * kQuad;
  for (usize m = 0; m < M; ++m) {
    const float* src = A + m * lda;
    i8* row0 = out + m * kQuad;  // this row's slot inside quad 0
    usize k = 0;
    // 8-wide body (two quads per iteration): short GEMM K (a conv patch can
    // be a few dozen taps) must still vectorize, so the granule is one
    // vector, not four. The two dword stores land in consecutive quads.
    for (; k + 8 <= K; k += 8) {
      __m256 v = _mm256_mul_ps(_mm256_loadu_ps(src + k), vinv);
      v = _mm256_min_ps(_mm256_max_ps(v, lo), hi);
      const __m256 h = _mm256_or_ps(_mm256_and_ps(v, sign_mask), half);
      const __m256i q = _mm256_cvttps_epi32(_mm256_add_ps(v, h));
      const __m128i p16 =
          _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
      const __m128i p8 = _mm_packs_epi16(p16, p16);
      i8* dst = row0 + (k / kQuad) * quad_stride;
      const int d0 = _mm_cvtsi128_si32(p8), d1 = _mm_extract_epi32(p8, 1);
      __builtin_memcpy(dst, &d0, sizeof(d0));
      __builtin_memcpy(dst + quad_stride, &d1, sizeof(d1));
    }
    for (; k < K; ++k) out[a_panel_slot(m, k, M)] = quantize_code(src[k], inv);
    for (; k < K4; ++k) out[a_panel_slot(m, k, M)] = 0;
  }
}

#endif  // DNND_SIMD_X86

// ---- quad interleave (transpose-to-panel) -----------------------------------
// out[(kq*P + p)*4 + j] = T[(4kq + j)*P + p]: four T rows zip into P
// contiguous dwords. Pure byte movement -- the SSE2 unpack ladder (baseline
// x86-64, no dispatch needed) and the portable loop are byte-identical on
// any input.

#ifndef DNND_SIMD_X86
void interleave_quads_i8_portable(const i8* T, usize P, usize KQ, i8* out) {
  for (usize kq = 0; kq < KQ; ++kq) {
    const i8* r0 = T + (kq * kQuad + 0) * P;
    const i8* r1 = T + (kq * kQuad + 1) * P;
    const i8* r2 = T + (kq * kQuad + 2) * P;
    const i8* r3 = T + (kq * kQuad + 3) * P;
    i8* dst = out + kq * P * kQuad;
    for (usize p = 0; p < P; ++p) {
      dst[p * kQuad + 0] = r0[p];
      dst[p * kQuad + 1] = r1[p];
      dst[p * kQuad + 2] = r2[p];
      dst[p * kQuad + 3] = r3[p];
    }
  }
}
#endif  // !DNND_SIMD_X86

#ifdef DNND_SIMD_X86

void interleave_quads_i8_sse2(const i8* T, usize P, usize KQ, i8* out) {
  for (usize kq = 0; kq < KQ; ++kq) {
    const i8* r0 = T + (kq * kQuad + 0) * P;
    const i8* r1 = T + (kq * kQuad + 1) * P;
    const i8* r2 = T + (kq * kQuad + 2) * P;
    const i8* r3 = T + (kq * kQuad + 3) * P;
    i8* dst = out + kq * P * kQuad;
    usize p = 0;
    for (; p + 16 <= P; p += 16) {
      const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + p));
      const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1 + p));
      const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r2 + p));
      const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r3 + p));
      const __m128i ab_lo = _mm_unpacklo_epi8(a, b), ab_hi = _mm_unpackhi_epi8(a, b);
      const __m128i cd_lo = _mm_unpacklo_epi8(c, d), cd_hi = _mm_unpackhi_epi8(c, d);
      __m128i* q = reinterpret_cast<__m128i*>(dst + p * kQuad);
      _mm_storeu_si128(q + 0, _mm_unpacklo_epi16(ab_lo, cd_lo));
      _mm_storeu_si128(q + 1, _mm_unpackhi_epi16(ab_lo, cd_lo));
      _mm_storeu_si128(q + 2, _mm_unpacklo_epi16(ab_hi, cd_hi));
      _mm_storeu_si128(q + 3, _mm_unpackhi_epi16(ab_hi, cd_hi));
    }
    for (; p < P; ++p) {
      dst[p * kQuad + 0] = r0[p];
      dst[p * kQuad + 1] = r1[p];
      dst[p * kQuad + 2] = r2[p];
      dst[p * kQuad + 3] = r3[p];
    }
  }
}

#endif  // DNND_SIMD_X86

// ---- NEON -------------------------------------------------------------------
// Eight lanes = two q registers per A row. vmul+vadd (not vmla, which the
// compiler may emit as fused FMLA) keeps the path bit-transparent.

#ifdef DNND_SIMD_NEON

void tile8_neon(usize K, const float* const* a, const float* panel, float* acc) {
  float32x4_t lo[kMr], hi[kMr];
  for (usize i = 0; i < kMr; ++i) {
    lo[i] = vld1q_f32(acc + i * kNr);
    hi[i] = vld1q_f32(acc + i * kNr + 4);
  }
  for (usize k = 0; k < K; ++k, panel += kNr) {
    const float32x4_t blo = vld1q_f32(panel), bhi = vld1q_f32(panel + 4);
    for (usize i = 0; i < kMr; ++i) {
      const float32x4_t av = vdupq_n_f32(a[i][k]);
      lo[i] = vaddq_f32(lo[i], vmulq_f32(av, blo));
      hi[i] = vaddq_f32(hi[i], vmulq_f32(av, bhi));
    }
  }
  for (usize i = 0; i < kMr; ++i) {
    vst1q_f32(acc + i * kNr, lo[i]);
    vst1q_f32(acc + i * kNr + 4, hi[i]);
  }
}

void row1_neon(usize K, const float* a, const float* panel, float* acc) {
  float32x4_t lo = vld1q_f32(acc), hi = vld1q_f32(acc + 4);
  for (usize k = 0; k < K; ++k, panel += kNr) {
    const float32x4_t av = vdupq_n_f32(a[k]);
    lo = vaddq_f32(lo, vmulq_f32(av, vld1q_f32(panel)));
    hi = vaddq_f32(hi, vmulq_f32(av, vld1q_f32(panel + 4)));
  }
  vst1q_f32(acc, lo);
  vst1q_f32(acc + 4, hi);
}

#endif  // DNND_SIMD_NEON

// ---- dispatch ---------------------------------------------------------------

std::atomic<int> g_scalar_override{-1};  ///< -1 env, 0 simd on, 1 scalar
std::atomic<int> g_int8_override{-1};    ///< -1 env, 0 off, 1 integer path

Isa detect_isa() {
#if defined(DNND_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#elif defined(DNND_SIMD_NEON)
  return Isa::kNeon;
#endif
  return Isa::kScalar;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kNeon: return "neon";
  }
  return "scalar";
}

Isa best_isa() {
  // CPUID results never change mid-process; probe once.
  static const Isa isa = detect_isa();
  return isa;
}

void set_scalar_override(int v) { g_scalar_override.store(v, std::memory_order_relaxed); }
int scalar_override() { return g_scalar_override.load(std::memory_order_relaxed); }

bool force_scalar() {
  const int v = g_scalar_override.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  return sys::env_usize("DNND_SIMD", 1) == 0;
}

void set_int8_override(int v) { g_int8_override.store(v, std::memory_order_relaxed); }
int int8_override() { return g_int8_override.load(std::memory_order_relaxed); }

bool int8_enabled() {
  const int v = g_int8_override.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  return sys::env_usize("DNND_INT8", 0) != 0;
}

Isa active_isa() { return force_scalar() ? Isa::kScalar : best_isa(); }

Kernels active_kernels() {
  const Isa isa = active_isa();
  switch (isa) {
#ifdef DNND_SIMD_X86
    case Isa::kAvx2: return {tile8_avx2, row1_avx2, isa};
#endif
#ifdef DNND_SIMD_NEON
    case Isa::kNeon: return {tile8_neon, row1_neon, isa};
#endif
    default:
      break;
  }
  return {tile8_scalar, row1_scalar, Isa::kScalar};
}

I8Kernels active_int8_kernels() {
#ifdef DNND_SIMD_X86
  // Only AVX2 has a vector int8 variant; NEON (no sdot baseline on our
  // minimum target) and scalar share the reference loops -- which is fine,
  // because the int8 byte gate only needs the variants to agree, and the
  // scalar quad loop already autovectorizes reasonably.
  if (!force_scalar() && best_isa() == Isa::kAvx2) {
    return {i8_tile8_avx2, i8_row1_avx2, Isa::kAvx2};
  }
#endif
  return {i8_tile8_scalar, i8_row1_scalar, Isa::kScalar};
}

void quantize_panel_i8(const float* A, usize M, usize K, usize lda, float inv, i8* out) {
#ifdef DNND_SIMD_X86
  if (!force_scalar() && best_isa() == Isa::kAvx2) {
    quantize_panel_i8_avx2(A, M, K, lda, inv, out);
    return;
  }
#endif
  quantize_panel_i8_scalar(A, M, K, lda, inv, out);
}

void interleave_quads_i8(const i8* T, usize P, usize KQ, i8* out) {
#ifdef DNND_SIMD_X86
  interleave_quads_i8_sse2(T, P, KQ, out);
#else
  interleave_quads_i8_portable(T, P, KQ, out);
#endif
}

}  // namespace dnnd::nn::simd
