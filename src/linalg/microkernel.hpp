// Blocked, register-tiled GEMM — the hot loop under every dense, tiled and
// TLR kernel in the library.
//
// Structure (BLIS/GotoBLAS three-level blocking):
//
//   for jc in steps of kNC:                 (B panel column block)
//     for pc in steps of kKC:               (reduction block)
//       pack op(B)(pc:, jc:) into bpack     (row-panels of kNR columns)
//       for ic in steps of kMC:             (A panel row block)
//         pack op(A)(ic:, pc:) into apack   (column-panels of kMR rows)
//         for each (kMR x kNR) microtile:
//           acc  = sum_l apack_panel(:, l) * bpack_panel(l, :)
//           C   += alpha * acc              (vector write-back of a full
//                                            tile, a scalar loop at ragged
//                                            edges)
//
// The microtile accumulator lives in registers across the whole k loop, the
// packed panels are contiguous and 64-byte aligned, and transposition is
// folded into packing, so no transposed operand is ever materialised. The
// tile is 32 x 6 (24 of the 32 zmm registers) where the kernel TU is built
// for AVX-512, 16 x 4 elsewhere; see microkernel.cpp.
//
// Two contracts every change here must keep (see tests/test_determinism.cpp
// and tests/test_linalg_blas.cpp):
//
//  * Determinism: the reduction order depends only on k — never on m or n,
//    the register tile, the data, the thread count, or which worker runs
//    the task. Partial panels are zero-padded to full microtile width; the
//    padded lanes multiply real data but land in accumulator slots that are
//    never written back, so padding cannot perturb (or un-NaN) a visible
//    result. The full-tile and ragged write-backs compute the same
//    c + alpha * acc per entry (Gemm.ColsBitwiseIndependentOfPanelWidth,
//    Gemm.RowsBitwiseIndependentOfPanelHeight).
//  * BLAS-style NaN/Inf semantics: no value-dependent skips on the
//    accumulation path. 0 * Inf contributes NaN, exactly like the reference
//    BLAS, and identically in every column position.
#pragma once

#include <span>

#include "common/types.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace parmvn::la::detail {

/// Reduction block: each C entry is summed from zero in ascending k within
/// each kKC-long block of k, then C += alpha * acc, so a result's bits
/// depend on k and the operands only (and on whether the build contracts
/// multiply-adds) — not on m, n, the register tile or the A/B cache blocks.
/// The register tile (kMR x kNR) and the A/B blocks (kMC, kNC) depend on
/// the target ISA, so they live in microkernel.cpp, the one TU compiled
/// with the native flags: a header constant would differ between TUs.
inline constexpr i64 kKC = 192;

/// C += alpha * op(A) * op(B), with op(A) m x k, op(B) k x n, C m x n.
/// Operand transposition is handled while packing panels. The caller
/// (la::gemm) has already applied beta to C and screened out alpha == 0 and
/// empty shapes. Packing and the microkernel both run on the calling thread.
void gemm_packed(double alpha, Trans trans_a, ConstMatrixView a,
                 Trans trans_b, ConstMatrixView b, MatrixView c);

/// SIMD dot product backing la::dot (the hot callers are the Jacobi SVD's
/// column inner products, the Householder and pivoted-QR column norms, and
/// the ACA compression's norm updates). Four independent 8-lane
/// accumulators, reduced in a fixed lane order — the reduction order depends
/// only on n, preserving the determinism contract (but it differs from the
/// naive left-to-right sum, so callers get reassociated rounding).
[[nodiscard]] double dot_simd(i64 n, const double* x, const double* y) noexcept;

/// SIMD y[j] = alpha * (A(:, j) . x) + beta * y[j] backing la::gemv's
/// transposed case (the pivoted QR's per-step F column is the hot caller).
/// Four columns per pass share each x load, two 8-lane accumulators per
/// column; the per-column reduction order depends only on the shape.
/// beta == 0 overwrites y without reading it.
void gemv_trans_simd(double alpha, ConstMatrixView a, const double* x,
                     double beta, double* y);

/// SIMD plane rotation (x, y) <- (c x - s y, s x + c y) over n entries: the
/// column update of the one-sided Jacobi SVD (linalg/svd.cpp). Elementwise,
/// so vectorising reassociates nothing (the native build may contract the
/// multiply-adds).
void rot_simd(i64 n, double c, double s, double* x, double* y) noexcept;

/// SIMD y += sum_j (alpha * x[j]) * A(:, j) column sweep backing la::gemv's
/// no-transpose case; bitwise identical to the scalar loop (vectorising over
/// rows does not reassociate any per-element sum).
void gemv_notrans_simd(double alpha, ConstMatrixView a, const double* x,
                       double* y);

/// Same sweep with a strided x (x[j * incx]): the QMC integrand's
/// sample-contiguous row accumulation s += sum_k L(i, k) * Y(:, k) reads the
/// factor row i directly out of the column-major tile (incx = ld). The
/// per-element reduction order is ascending k, independent of panel width.
void gemv_notrans_strided_simd(double alpha, ConstMatrixView a,
                               const double* x, i64 incx, double* y);

/// The same column sweep over listed columns only, alpha = 1:
/// y += sum_q w[q] * A(:, cols[q] - col_base), q ascending. Each column
/// update is the per-lane expression of gemv_notrans_strided_simd, so a
/// sparse row (the Vecchia chain step's in-tile weights) gives bitwise what
/// the strided sweep gives over a dense row holding zeros elsewhere, as
/// long as A is finite (a zero weight then adds exactly nothing). It lives
/// in this TU for that reason: the native build FMA-contracts it here, as
/// it does the strided sweep.
void gemv_notrans_gather_simd(ConstMatrixView a, std::span<const i64> cols,
                              i64 col_base, const double* w, double* y);

}  // namespace parmvn::la::detail
