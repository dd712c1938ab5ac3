#include "nn/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

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

/// koff[k] = k for k < K: the offset table of a contiguous A row. Grown once
/// per thread to the largest depth it has seen; the pool threads of a call
/// only read the caller's table.
const u32* identity_offsets(usize K) {
  thread_local std::vector<u32> table;
  if (K > std::numeric_limits<u32>::max()) throw std::length_error("gemm: K exceeds 32 bits");
  while (table.size() < K) table.push_back(static_cast<u32>(table.size()));
  return table.data();
}

/// The serial kernel body over output rows [m_lo, m_hi) and columns
/// [n_lo, n_hi): every 8x8 register tile and single-row remainder goes to a
/// simd:: microkernel, which starts its accumulators, advances each in
/// ascending k and stores them (see nn/simd.hpp for the lane-per-accumulator
/// argument). `row(m)` is A row m's base pointer. The threaded entry point
/// below only ever calls this on disjoint output blocks.
template <typename RowBase>
void kernel(const simd::Kernels& kernels, const RowBase& row, usize m_lo, usize m_hi,
            usize n_lo, usize n_hi, usize K, const u32* koff, const float* packed_b, float* C,
            usize crs, usize ccs, const float* bias, Bias bias_kind) {
  simd::Tile t;
  t.K = K;
  t.koff = koff;
  t.crs = crs;
  t.ccs = ccs;
  t.start = bias_kind;
  for (usize n0 = n_lo; n0 < n_hi; n0 += kNr) {
    t.panel = packed_b + n0 * K;
    t.cols = std::min(kNr, n_hi - n0);
    t.bias = bias_kind == Bias::kPerCol ? bias + n0 : nullptr;
    usize m = m_lo;
    for (; m + kMr <= m_hi; m += kMr) {
      const float* a[kMr];
      for (usize i = 0; i < kMr; ++i) a[i] = row(m + i);
      t.c = C + m * crs + n0 * ccs;
      kernels.tile8(t, a);
    }
    for (; m < m_hi; ++m) {
      t.c = C + m * crs + n0 * ccs;
      kernels.row1(t, row(m));
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

namespace {

/// The one GEMM body behind both entry points: partitions the output and
/// runs the kernel on each block with A row m at row(m).
template <typename RowBase>
void run(usize M, usize N, usize K, const RowBase& row, const u32* koff,
         const float* packed_b, float* C, usize crs, usize ccs, const float* bias,
         Bias bias_kind) {
  if (M == 0 || N == 0) return;
  if (crs != 1 && ccs != 1) throw std::invalid_argument("gemm: C needs a unit stride");
  // Resolved once per GEMM (not per team slot): the knob reads fall through
  // to getenv when no override is set, which must stay off the per-probe
  // hot path -- BFA campaigns issue thousands of microsecond-scale GEMMs.
  const simd::Kernels kernels = simd::active_kernels();
  for_output_blocks(M, N, K, [&](usize m_lo, usize m_hi, usize n_lo, usize n_hi) {
    kernel(kernels, row, m_lo, m_hi, n_lo, n_hi, K, koff, packed_b, C, crs, ccs, bias,
           bias_kind);
  });
}

}  // namespace

void gemm_nt_prepacked(usize M, usize N, usize K, const float* A, usize lda,
                       const float* packed_b, float* C, usize crs, usize ccs,
                       const float* bias, Bias bias_kind) {
  run(M, N, K, [A, lda](usize m) { return A + m * lda; }, identity_offsets(K), packed_b, C,
      crs, ccs, bias, bias_kind);
}

void gemm_nt_offsets(usize M, usize N, usize K, const float* base, const u32* rows,
                     const u32* koff, const float* packed_b, float* C, usize crs, usize ccs,
                     const float* bias, Bias bias_kind) {
  run(M, N, K, [base, rows](usize m) { return base + rows[m]; }, koff, packed_b, C, crs, ccs,
      bias, bias_kind);
}

}  // namespace dnnd::nn::gemm
