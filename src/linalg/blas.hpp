// Dense BLAS-style kernels (the library's MKL substitute).
//
// Only the operations the tile/TLR/PMVN algorithms need are implemented:
// lower-triangular variants throughout (Cholesky-world). All kernels are
// sequential; parallelism lives one level up, in the task runtime.
//
// The BLAS-3 kernels (gemm, and through it syrk/trsm) run on the
// blocked, register-tiled microkernel in linalg/microkernel.hpp. Two
// contracts hold everywhere:
//  * Reference-BLAS NaN/Inf semantics: no value-dependent skips on any
//    accumulation path (0 * Inf = NaN propagates, in every column position).
//    Early-outs key only on the scalar alpha/beta parameters.
//  * Determinism: for a given kernel and operand shape the floating-point
//    reduction order is fixed — independent of data, thread count, and which
//    worker runs the task (test_determinism relies on this).
#pragma once

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace parmvn::la {

enum class Trans { kNo, kYes };
enum class Side { kLeft, kRight };

/// C = alpha * op(A) * op(B) + beta * C.
void gemm(Trans trans_a, Trans trans_b, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c);

/// Lower triangle of C = alpha * op(A) * op(A)^T + beta * C.
/// op(A)=A for kNo (C: m x m, A: m x k), op(A)=A^T for kYes (C: k x k).
/// Strictly-upper entries of C are not referenced or written.
void syrk(Trans trans, double alpha, ConstMatrixView a, double beta,
          MatrixView c);

/// Triangular solve with a lower-triangular non-unit L:
///   kLeft,  kNo : B <- alpha * L^-1  B
///   kLeft,  kYes: B <- alpha * L^-T  B
///   kRight, kNo : B <- alpha * B L^-1
///   kRight, kYes: B <- alpha * B L^-T
void trsm(Side side, Trans trans, double alpha, ConstMatrixView l,
          MatrixView b);

/// y = alpha * op(A) x + beta * y.
void gemv(Trans trans, double alpha, ConstMatrixView a, const double* x,
          double beta, double* y);

/// Dot product of n-vectors. SIMD, with a fixed blocked reduction order
/// that depends only on n (not the naive left-to-right sum).
[[nodiscard]] double dot(i64 n, const double* x, const double* y) noexcept;

/// y += alpha * x.
void axpy(i64 n, double alpha, const double* x, double* y) noexcept;

/// Frobenius norm.
[[nodiscard]] double frobenius_norm(ConstMatrixView a) noexcept;

/// max |a_ij|.
[[nodiscard]] double max_abs(ConstMatrixView a) noexcept;

/// ||A - B||_F over equally shaped views.
[[nodiscard]] double frobenius_diff(ConstMatrixView a, ConstMatrixView b);

}  // namespace parmvn::la
