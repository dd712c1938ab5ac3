// Order-preserving GEMM -- the compute core of the inference engine.
//
// Both operands are K-major ("NT" layout: C[m,n] = dot(A row m, B row n)),
// which is exactly how Dense (x rows x weight rows) and Conv2d (window rows
// x weight rows) present their data. The kernel packs B into 8-row
// interleaved panels so the inner loop is a contiguous SIMD-friendly stream.
// Operands that are stored the other way round are packed straight from
// their own layout (pack_bt, pack_b_block), which is how the backward passes
// lower onto the same kernel.
//
// A is read through offset tables, never gathered: element k of A row m is
// base[rows[m] + koff[k]] (gemm_nt_offsets). A contiguous row-major A is the
// identity case (gemm_nt_prepacked: row m at A + m*lda, koff[k] = k). Conv2d
// points the rows at windows of its zero-bordered planes and koff at the
// taps within a window, so its patch matrices exist only as offsets. There
// is one kernel family for both (nn/simd.hpp).
//
// Bit-exactness contract: every output element is produced by ONE float
// accumulator initialised with its bias term (or, in accumulate mode, with
// the current C element) and advanced in strictly ascending k -- the
// accumulation order of the original hand-rolled forward and backward loops
// (retained verbatim in src/nn/reference.cpp). Tiling and packing only
// reorder *independent* accumulators, never the terms within one, and an
// offset read yields the very element a gather would have copied, so the
// lowered path is bitwise identical to the naive path (tests/test_gemm.cpp
// holds this over randomized shapes).
//
// Threading extends the same contract: the kernel partitions the OUTPUT
// (contiguous M row chunks, or B panel groups when M is smaller than the
// team) across an nn::ThreadPool team, so each accumulator still belongs to
// exactly one thread and still sees its terms in ascending k. Threaded
// results are therefore byte-identical to serial by construction, for every
// team size (tests/test_gemm.cpp sweeps 1/2/4/hardware). The team size comes
// from set_threads() / the DNND_THREADS env var.
//
// The inner k loops are explicit SIMD register tiles (nn/simd.hpp): runtime-
// dispatched AVX2/NEON microkernels that put one output column per vector
// lane and issue a distinct non-contracted multiply and add per lane -- the
// same contract again, so the SIMD path is byte-identical to the scalar path
// (DNND_SIMD=0 forces scalar). The microkernels also start and store the
// accumulators, straight from registers.
#pragma once

#include "sys/types.hpp"

namespace dnnd::nn {

namespace gemm {

/// How the per-output accumulator is initialised. Both forward lowerings put
/// the bias-carrying dimension on the GEMM columns: for Dense, n is the
/// output feature; for Conv2d (windows as rows, weights as columns), n is the
/// output channel.
///
/// kAccumulate gives `C += A B^T` semantics for the backward lowerings'
/// parameter gradients: the accumulator starts at the current C element and
/// is stored back after the last k, so splitting a reduction across calls
/// (or continuing one started by other code) adds the same terms in the same
/// order as one uninterrupted loop -- a float store and reload is exact.
enum class Bias : u32 {
  kNone,        ///< acc starts at +0
  kPerCol,      ///< acc starts at bias[n]
  kAccumulate,  ///< acc starts at C[m, n] (bias unused, may be null)
};

/// Floats needed to pack an N x K B operand (8-row interleaved panels).
[[nodiscard]] usize packed_b_size(usize N, usize K);

/// Packs B (N rows, K-major, leading dim ldb) into sequential 8-row panels.
void pack_b(const float* B, usize ldb, usize N, usize K, float* packed);

/// Packs an N x K block of B into the k range [k0, k0 + K) of a pack_b
/// layout whose full depth is `ktot` -- lets a caller assemble one operand
/// whose k dimension spans several separately stored blocks (Conv2d's
/// dweight GEMM reduces over every sample's output positions at once).
void pack_b_block(const float* B, usize ldb, usize N, usize K, usize k0, usize ktot,
                  float* packed);

/// Packs B given TRANSPOSED -- B[n, k] = Bt[k * ldbt + n], i.e. K rows of N
/// -- into the pack_b layout. Every panel line is one contiguous 8-float
/// copy; the Dense backward lowerings read the weight and the cached input
/// this way without materializing their transposes.
void pack_bt(const float* Bt, usize ldbt, usize N, usize K, float* packed);

/// The float GEMM: C[m*crs + n*ccs] = bias_init + sum_k A[m*lda + k] *
/// B[n, k], for m in [0,M), n in [0,N), k ascending, with B given as a
/// pack_b / pack_b_block / pack_bt panel. Callers pack B once per call (Dense
/// into its workspace's pack buffer; Conv2d once for all samples) and pick the
/// output strides, one of which must be 1: Dense writes row-major C (crs=N,
/// ccs=1), Conv2d writes the NCHW output slice directly (crs=1, ccs=oh*ow).
void gemm_nt_prepacked(usize M, usize N, usize K, const float* A, usize lda,
                       const float* packed_b, float* C, usize crs, usize ccs,
                       const float* bias, Bias bias_kind);

/// gemm_nt_prepacked with A read through offset tables: A[m, k] =
/// base[rows[m] + koff[k]] (M row offsets, K k-offsets). The bytes equal
/// gemm_nt_prepacked's on the explicitly gathered A.
void gemm_nt_offsets(usize M, usize N, usize K, const float* base, const u32* rows,
                     const u32* koff, const float* packed_b, float* C, usize crs, usize ccs,
                     const float* bias, Bias bias_kind);

/// Sets the GEMM team size. 0 (the default) resolves to the DNND_THREADS env
/// var, else to std::thread::hardware_concurrency(). Process-global; outputs
/// are byte-identical for every value.
void set_threads(usize n);
/// The resolved team size (always >= 1).
[[nodiscard]] usize threads();
/// The raw set_threads() value (0 = auto) so callers can save and restore it.
[[nodiscard]] usize threads_setting();

/// RAII save/restore of the process-global team-size setting (the
/// set_threads analogue of the SIMD override guards): captures
/// threads_setting() at construction and restores it on scope exit, so a
/// temporary override cannot leak past an exception thrown in between.
class [[nodiscard]] ThreadsGuard {
 public:
  ThreadsGuard() : saved_(threads_setting()) {}
  ~ThreadsGuard() { set_threads(saved_); }
  ThreadsGuard(const ThreadsGuard&) = delete;
  ThreadsGuard& operator=(const ThreadsGuard&) = delete;

 private:
  usize saved_;
};

/// Team size a parallel entry point should use for `items` independent work
/// units totalling `macs` multiply-accumulates: min(threads(), items), or 1
/// when threading is off, the work is too small to amortise a region, or the
/// caller is already inside a pool region (nested parallelism runs serial).
[[nodiscard]] usize plan_teams(usize items, usize macs);

}  // namespace gemm
}  // namespace dnnd::nn
