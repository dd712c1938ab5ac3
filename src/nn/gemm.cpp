#include "nn/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "nn/simd.hpp"
#include "nn/thread_pool.hpp"
#include "sys/env.hpp"

namespace dnnd::nn::gemm {

namespace {

std::atomic<usize> g_threads{0};  ///< 0 = auto (env, then hardware)

/// Work below this many multiply-accumulates runs serial: a pool region costs
/// a few microseconds of synchronisation, which only pays off once the kernel
/// itself is past that scale. Tiny campaign models stay serial through this.
constexpr usize kParallelMinWork = usize{1} << 15;

/// Re-reads the environment on every call (no once-only cache): after a
/// mid-process env change, set_threads(0) must resolve to the NEW value, or
/// tests and the campaign's budget-split restore disagree about the team
/// size. env_usize warns (once) on garbage instead of silently falling back.
usize auto_threads() {
  const usize n = sys::env_usize("DNND_THREADS", 0);
  if (n > 0) return n;
  return static_cast<usize>(std::max(1u, std::thread::hardware_concurrency()));
}

/// B rows interleaved per panel: panel[k * kNr + r] = B[(n0 + r) * ldb + k].
/// With 8 independent accumulators the inner k loop reads one contiguous
/// 8-float line per step -- vectorizable across the accumulators while each
/// accumulator still sees its terms in ascending k.
constexpr usize kNr = 8;

/// M tile: bounds the live span of A rows streamed against one packed panel.
constexpr usize kMc = 128;

/// A rows per register tile -- also the grain of the threaded row split, so a
/// team never cuts a tile in half.
constexpr usize kMr = 8;

void pack_panel(const float* B, usize ldb, usize rows, usize K, float* panel) {
  for (usize k = 0; k < K; ++k) {
    float* dst = panel + k * kNr;
    for (usize r = 0; r < rows; ++r) dst[r] = B[r * ldb + k];
    for (usize r = rows; r < kNr; ++r) dst[r] = 0.0f;
  }
}

inline float bias_for(const float* bias, Bias kind, usize n) {
  return kind == Bias::kPerCol ? bias[n] : 0.0f;
}

/// Starting value of the accumulator for output (row c, column n0 + r) of an
/// N-column GEMM; `c` points at the row's column n0. Lanes past the ragged
/// edge read a clamped in-bounds element and are never stored.
inline float acc_start(const float* bias, Bias kind, const float* c, usize ccs, usize n0,
                       usize r, usize N) {
  const usize n = n0 + r < N ? n0 + r : N - 1;
  return kind == Bias::kAccumulate ? c[(n - n0) * ccs] : bias_for(bias, kind, n);
}

/// The serial kernel body: one float accumulator per output, advanced in
/// ascending k. The inner k loops are the simd:: microkernels -- explicit
/// AVX2/NEON register tiles with one output column per vector lane, byte-
/// identical to the scalar loops by construction (see nn/simd.hpp for the
/// lane-per-accumulator argument). The threaded entry point below only ever
/// calls this on disjoint output blocks.
void kernel(const simd::Kernels& simd_kernels, usize M, usize N, usize K, const float* A,
            usize lda, const float* packed_b, float* C, usize crs, usize ccs,
            const float* bias, Bias bias_kind) {
  for (usize n0 = 0; n0 < N; n0 += kNr) {
    const usize rows = std::min(kNr, N - n0);
    const float* panel = packed_b + n0 * K;
    for (usize m0 = 0; m0 < M; m0 += kMc) {
      const usize m1 = std::min(M, m0 + kMc);
      usize m = m0;
      // 8x8 register tile: one panel line feeds eight A rows per k step. Each
      // of the 64 accumulators is still a single float advanced in ascending
      // k, so neither the tiling nor the lane assignment can change any
      // output bit.
      for (; m + kMr <= m1; m += kMr) {
        const float* a[kMr];
        for (usize i = 0; i < kMr; ++i) a[i] = A + (m + i) * lda;
        float acc[kMr][kNr];
        for (usize i = 0; i < kMr; ++i) {
          const float* c = C + (m + i) * crs + n0 * ccs;
          for (usize r = 0; r < kNr; ++r) {
            acc[i][r] = acc_start(bias, bias_kind, c, ccs, n0, r, N);
          }
        }
        simd_kernels.tile8(K, a, panel, &acc[0][0]);
        for (usize i = 0; i < kMr; ++i) {
          float* c = C + (m + i) * crs + n0 * ccs;
          for (usize r = 0; r < rows; ++r) c[r * ccs] = acc[i][r];
        }
      }
      for (; m < m1; ++m) {
        const float* a = A + m * lda;
        float* c = C + m * crs + n0 * ccs;
        float acc[kNr];
        for (usize r = 0; r < kNr; ++r) acc[r] = acc_start(bias, bias_kind, c, ccs, n0, r, N);
        simd_kernels.row1(K, a, panel, acc);
        for (usize r = 0; r < rows; ++r) c[r * ccs] = acc[r];
      }
    }
  }
}

/// Runs `block(m_lo, m_hi, n_lo, n_hi)` over a partition of the M x N output
/// -- the GEMM's threading scheme. Team planning is in units the
/// split can actually hand out: whole 8-row register tiles (row split) or
/// whole 8-column B panels (panel split), never more slots than there are
/// tiles to own. Every output belongs to exactly one block, and a block's
/// kernel call advances each of its accumulators exactly as the serial call
/// would, so any partition yields the serial bytes.
template <typename Block>
void for_output_blocks(usize M, usize N, usize K, const Block& block) {
  const usize row_tiles = (M + kMr - 1) / kMr;
  const usize panels = (N + kNr - 1) / kNr;
  const usize teams = plan_teams(std::max(row_tiles, panels), M * N * K);
  if (teams <= 1) {
    block(0, M, 0, N);
  } else if (row_tiles >= teams) {
    // Contiguous M row chunks (multiples of the register tile): every thread
    // owns whole output rows.
    ThreadPool::instance().parallel(teams, [&](usize slot, usize nslots) {
      const usize chunk = (row_tiles + nslots - 1) / nslots * kMr;
      const usize lo = std::min(M, slot * chunk), hi = std::min(M, lo + chunk);
      if (lo < hi) block(lo, hi, 0, N);
    });
  } else {
    // Fewer row tiles than the team: partition the packed B panels instead,
    // so each thread owns whole output COLUMN groups (disjoint n0 blocks).
    ThreadPool::instance().parallel(std::min(teams, panels), [&](usize slot, usize nslots) {
      const usize chunk = (panels + nslots - 1) / nslots;
      const usize p_lo = std::min(panels, slot * chunk), p_hi = std::min(panels, p_lo + chunk);
      if (p_lo < p_hi) block(0, M, p_lo * kNr, std::min(N, p_hi * kNr));
    });
  }
}

}  // namespace

void set_threads(usize n) { g_threads.store(n, std::memory_order_relaxed); }

usize threads() {
  const usize setting = g_threads.load(std::memory_order_relaxed);
  return setting != 0 ? setting : auto_threads();
}

usize threads_setting() { return g_threads.load(std::memory_order_relaxed); }

usize plan_teams(usize items, usize macs) {
  if (items <= 1 || macs < kParallelMinWork || ThreadPool::in_region()) return 1;
  return std::min(threads(), items);
}

usize packed_b_size(usize N, usize K) { return ((N + kNr - 1) / kNr) * kNr * K; }

void pack_b(const float* B, usize ldb, usize N, usize K, float* packed) {
  pack_b_block(B, ldb, N, K, 0, K, packed);
}

void pack_b_block(const float* B, usize ldb, usize N, usize K, usize k0, usize ktot,
                  float* packed) {
  for (usize n0 = 0; n0 < N; n0 += kNr) {
    pack_panel(B + n0 * ldb, ldb, std::min(kNr, N - n0), K, packed + n0 * ktot + k0 * kNr);
  }
}

void pack_bt(const float* Bt, usize ldbt, usize N, usize K, float* packed) {
  for (usize n0 = 0; n0 < N; n0 += kNr) {
    const usize rows = std::min(kNr, N - n0);
    float* panel = packed + n0 * K;
    for (usize k = 0; k < K; ++k) {
      const float* src = Bt + k * ldbt + n0;
      float* dst = panel + k * kNr;
      for (usize r = 0; r < rows; ++r) dst[r] = src[r];
      for (usize r = rows; r < kNr; ++r) dst[r] = 0.0f;
    }
  }
}

void gemm_nt_prepacked(usize M, usize N, usize K, const float* A, usize lda,
                       const float* packed_b, float* C, usize crs, usize ccs,
                       const float* bias, Bias bias_kind) {
  if (M == 0 || N == 0) return;
  // Resolved once per GEMM (not per team slot): the knob reads fall through
  // to getenv when no override is set, which must stay off the per-probe
  // hot path -- BFA campaigns issue thousands of microsecond-scale GEMMs.
  const simd::Kernels simd_kernels = simd::active_kernels();
  for_output_blocks(M, N, K, [&](usize m_lo, usize m_hi, usize n_lo, usize n_hi) {
    kernel(simd_kernels, m_hi - m_lo, n_hi - n_lo, K, A + m_lo * lda, lda, packed_b + n_lo * K,
           C + m_lo * crs + n_lo * ccs, crs, ccs,
           bias_kind == Bias::kPerCol ? bias + n_lo : bias, bias_kind);
  });
}

}  // namespace dnnd::nn::gemm
