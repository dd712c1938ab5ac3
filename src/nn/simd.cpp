#include "nn/simd.hpp"

#include <atomic>

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

}  // namespace dnnd::nn::simd
