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

/// Start value of accumulator (row i, lane r): +0, the column's bias or the
/// current C element. Lanes past t.cols start at +0 and are never stored.
float start_value(const Tile& t, usize i, usize r) {
  if (r >= t.cols || t.start == gemm::Bias::kNone) return 0.0f;
  return t.start == gemm::Bias::kPerCol ? t.bias[r] : t.c[i * t.crs + r * t.ccs];
}

template <usize kRows>
void tile_scalar(const Tile& t, const float* const* a) {
  float acc[kRows][kNr];
  for (usize i = 0; i < kRows; ++i) {
    for (usize r = 0; r < kNr; ++r) acc[i][r] = start_value(t, i, r);
  }
  const float* panel = t.panel;
  for (usize k = 0; k < t.K; ++k, panel += kNr) {
    const u32 off = t.koff[k];
    for (usize i = 0; i < kRows; ++i) {
      const float av = a[i][off];
      for (usize r = 0; r < kNr; ++r) acc[i][r] += av * panel[r];
    }
  }
  for (usize i = 0; i < kRows; ++i) {
    for (usize r = 0; r < t.cols; ++r) t.c[i * t.crs + r * t.ccs] = acc[i][r];
  }
}

void tile8_scalar(const Tile& t, const float* const* a) { tile_scalar<kMr>(t, a); }

void row1_scalar(const Tile& t, const float* a) { tile_scalar<1>(t, &a); }

// ---- AVX2 -------------------------------------------------------------------
// One ymm register per A row holds all eight column accumulators; each k step
// loads one panel line and broadcasts one A element per row. mul then add as
// two distinct instructions keeps the two-rounding scalar semantics. Ragged
// column counts use masked loads and stores.

#ifdef DNND_SIMD_X86

#define DNND_AVX2 __attribute__((target("avx2")))

DNND_AVX2 inline __m256i lanes_below(usize n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// In-place 8x8 transpose: lane i of v[r] becomes lane r of v[i].
DNND_AVX2 inline void transpose8(__m256* v) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]), t1 = _mm256_unpackhi_ps(v[0], v[1]);
  const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]), t3 = _mm256_unpackhi_ps(v[2], v[3]);
  const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]), t5 = _mm256_unpackhi_ps(v[4], v[5]);
  const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]), t7 = _mm256_unpackhi_ps(v[6], v[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  v[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  v[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  v[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  v[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  v[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  v[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  v[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  v[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/// The first `cols` lanes of a row-major line (the rest +0), and back.
DNND_AVX2 inline __m256 load_line(const float* p, usize cols, __m256i mask) {
  return cols == kNr ? _mm256_loadu_ps(p) : _mm256_maskload_ps(p, mask);
}
DNND_AVX2 inline void store_line(float* p, usize cols, __m256i mask, __m256 v) {
  if (cols == kNr) {
    _mm256_storeu_ps(p, v);
  } else {
    _mm256_maskstore_ps(p, mask, v);
  }
}

DNND_AVX2 void tile8_avx2(const Tile& t, const float* const* a) {
  const __m256i mask = lanes_below(t.cols);
  __m256 c[kMr];
  if (t.start == gemm::Bias::kAccumulate) {
    if (t.ccs == 1) {
      for (usize i = 0; i < kMr; ++i) c[i] = load_line(t.c + i * t.crs, t.cols, mask);
    } else {
      for (usize r = 0; r < kMr; ++r) {
        c[r] = r < t.cols ? _mm256_loadu_ps(t.c + r * t.ccs) : _mm256_setzero_ps();
      }
      transpose8(c);
    }
  } else {
    const __m256 b = t.start == gemm::Bias::kPerCol ? load_line(t.bias, t.cols, mask)
                                                     : _mm256_setzero_ps();
    for (usize i = 0; i < kMr; ++i) c[i] = b;
  }
  const float* panel = t.panel;
  for (usize k = 0; k < t.K; ++k, panel += kNr) {
    const __m256 b = _mm256_loadu_ps(panel);
    const u32 off = t.koff[k];
    for (usize i = 0; i < kMr; ++i) {
      c[i] = _mm256_add_ps(c[i], _mm256_mul_ps(_mm256_set1_ps(a[i][off]), b));
    }
  }
  if (t.ccs == 1) {
    for (usize i = 0; i < kMr; ++i) store_line(t.c + i * t.crs, t.cols, mask, c[i]);
  } else {
    transpose8(c);
    for (usize r = 0; r < t.cols; ++r) _mm256_storeu_ps(t.c + r * t.ccs, c[r]);
  }
}

DNND_AVX2 void row1_avx2(const Tile& t, const float* a) {
  const __m256i mask = lanes_below(t.cols);
  alignas(32) float line[kNr] = {};
  __m256 c = _mm256_setzero_ps();
  if (t.start == gemm::Bias::kPerCol) {
    c = load_line(t.bias, t.cols, mask);
  } else if (t.start == gemm::Bias::kAccumulate) {
    if (t.ccs == 1) {
      c = load_line(t.c, t.cols, mask);
    } else {
      for (usize r = 0; r < t.cols; ++r) line[r] = t.c[r * t.ccs];
      c = _mm256_load_ps(line);
    }
  }
  const float* panel = t.panel;
  for (usize k = 0; k < t.K; ++k, panel += kNr) {
    c = _mm256_add_ps(c, _mm256_mul_ps(_mm256_set1_ps(a[t.koff[k]]), _mm256_loadu_ps(panel)));
  }
  if (t.ccs == 1) {
    store_line(t.c, t.cols, mask, c);
  } else {
    _mm256_store_ps(line, c);
    for (usize r = 0; r < t.cols; ++r) t.c[r * t.ccs] = line[r];
  }
}

#undef DNND_AVX2

#endif  // DNND_SIMD_X86

// ---- NEON -------------------------------------------------------------------
// Eight lanes = two q registers per A row. vmul+vadd (not vmla, which the
// compiler may emit as fused FMLA) keeps the path bit-transparent. NEON has
// no masked load or store, so a ragged column count goes through a line
// buffer.

#ifdef DNND_SIMD_NEON

/// In-place 4x4 transpose of r[0..3].
inline void transpose4(float32x4_t* r0, float32x4_t* r1, float32x4_t* r2, float32x4_t* r3) {
  const float32x4x2_t t01 = vtrnq_f32(*r0, *r1), t23 = vtrnq_f32(*r2, *r3);
  *r0 = vcombine_f32(vget_low_f32(t01.val[0]), vget_low_f32(t23.val[0]));
  *r1 = vcombine_f32(vget_low_f32(t01.val[1]), vget_low_f32(t23.val[1]));
  *r2 = vcombine_f32(vget_high_f32(t01.val[0]), vget_high_f32(t23.val[0]));
  *r3 = vcombine_f32(vget_high_f32(t01.val[1]), vget_high_f32(t23.val[1]));
}

/// The 8x8 transpose as four 4x4 blocks. With row i held as (lo[i], hi[i]),
/// afterwards column r < 4 is (lo[r], lo[4 + r]) and column 4 + r is
/// (hi[r], hi[4 + r]); the same call maps columns held that way back to rows.
inline void transpose8(float32x4_t* lo, float32x4_t* hi) {
  transpose4(&lo[0], &lo[1], &lo[2], &lo[3]);
  transpose4(&lo[4], &lo[5], &lo[6], &lo[7]);
  transpose4(&hi[0], &hi[1], &hi[2], &hi[3]);
  transpose4(&hi[4], &hi[5], &hi[6], &hi[7]);
}

/// Where column r lives between two transpose8 calls (see transpose8).
inline float32x4_t& col_top(float32x4_t* lo, float32x4_t* hi, usize r) {
  return r < 4 ? lo[r] : hi[r - 4];
}
inline float32x4_t& col_bottom(float32x4_t* lo, float32x4_t* hi, usize r) {
  return r < 4 ? lo[4 + r] : hi[r];
}

/// The first `cols` floats of a row-major line (the rest +0), and back.
inline void load_line(const float* p, usize cols, float32x4_t* lo, float32x4_t* hi) {
  float line[kNr] = {};
  for (usize r = 0; r < cols; ++r) line[r] = p[r];
  *lo = vld1q_f32(line);
  *hi = vld1q_f32(line + 4);
}
inline void store_line(float* p, usize cols, float32x4_t lo, float32x4_t hi) {
  if (cols == kNr) {
    vst1q_f32(p, lo);
    vst1q_f32(p + 4, hi);
    return;
  }
  float line[kNr];
  vst1q_f32(line, lo);
  vst1q_f32(line + 4, hi);
  for (usize r = 0; r < cols; ++r) p[r] = line[r];
}

void tile8_neon(const Tile& t, const float* const* a) {
  float32x4_t lo[kMr], hi[kMr];
  if (t.start == gemm::Bias::kAccumulate) {
    if (t.ccs == 1) {
      for (usize i = 0; i < kMr; ++i) load_line(t.c + i * t.crs, t.cols, &lo[i], &hi[i]);
    } else {
      for (usize r = 0; r < kNr; ++r) {
        const bool valid = r < t.cols;
        col_top(lo, hi, r) = valid ? vld1q_f32(t.c + r * t.ccs) : vdupq_n_f32(0.0f);
        col_bottom(lo, hi, r) = valid ? vld1q_f32(t.c + r * t.ccs + 4) : vdupq_n_f32(0.0f);
      }
      transpose8(lo, hi);
    }
  } else {
    float32x4_t blo = vdupq_n_f32(0.0f), bhi = vdupq_n_f32(0.0f);
    if (t.start == gemm::Bias::kPerCol) load_line(t.bias, t.cols, &blo, &bhi);
    for (usize i = 0; i < kMr; ++i) {
      lo[i] = blo;
      hi[i] = bhi;
    }
  }
  const float* panel = t.panel;
  for (usize k = 0; k < t.K; ++k, panel += kNr) {
    const float32x4_t blo = vld1q_f32(panel), bhi = vld1q_f32(panel + 4);
    const u32 off = t.koff[k];
    for (usize i = 0; i < kMr; ++i) {
      const float32x4_t av = vdupq_n_f32(a[i][off]);
      lo[i] = vaddq_f32(lo[i], vmulq_f32(av, blo));
      hi[i] = vaddq_f32(hi[i], vmulq_f32(av, bhi));
    }
  }
  if (t.ccs == 1) {
    for (usize i = 0; i < kMr; ++i) store_line(t.c + i * t.crs, t.cols, lo[i], hi[i]);
  } else {
    transpose8(lo, hi);
    for (usize r = 0; r < t.cols; ++r) {
      vst1q_f32(t.c + r * t.ccs, col_top(lo, hi, r));
      vst1q_f32(t.c + r * t.ccs + 4, col_bottom(lo, hi, r));
    }
  }
}

void row1_neon(const Tile& t, const float* a) {
  float32x4_t lo = vdupq_n_f32(0.0f), hi = vdupq_n_f32(0.0f);
  float line[kNr] = {};
  if (t.start == gemm::Bias::kPerCol) {
    load_line(t.bias, t.cols, &lo, &hi);
  } else if (t.start == gemm::Bias::kAccumulate) {
    for (usize r = 0; r < t.cols; ++r) line[r] = t.c[r * t.ccs];
    lo = vld1q_f32(line);
    hi = vld1q_f32(line + 4);
  }
  const float* panel = t.panel;
  for (usize k = 0; k < t.K; ++k, panel += kNr) {
    const float32x4_t av = vdupq_n_f32(a[t.koff[k]]);
    lo = vaddq_f32(lo, vmulq_f32(av, vld1q_f32(panel)));
    hi = vaddq_f32(hi, vmulq_f32(av, vld1q_f32(panel + 4)));
  }
  if (t.ccs == 1) {
    store_line(t.c, t.cols, lo, hi);
  } else {
    vst1q_f32(line, lo);
    vst1q_f32(line + 4, hi);
    for (usize r = 0; r < t.cols; ++r) t.c[r * t.ccs] = line[r];
  }
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
