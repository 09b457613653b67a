#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/microkernel.hpp"

// Semantics note (uniform across every kernel in this file): there are no
// value-dependent skips on any accumulation path. A zero multiplier still
// contributes 0 * x, so NaN/Inf propagate exactly as in the reference BLAS
// and identically in every row/column position. Early-outs key only on the
// scalar parameters alpha/beta (part of the documented BLAS contract, e.g.
// alpha == 0 never reads A), never on matrix data.

namespace parmvn::la {

namespace {

void scale_matrix(double beta, MatrixView c) {
  if (beta == 1.0) return;
  for (i64 j = 0; j < c.cols; ++j) {
    double* cj = c.col(j);
    if (beta == 0.0) {
      std::fill(cj, cj + c.rows, 0.0);
    } else {
      for (i64 i = 0; i < c.rows; ++i) cj[i] *= beta;
    }
  }
}

}  // namespace

void gemm(Trans trans_a, Trans trans_b, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c) {
  const i64 m = c.rows;
  const i64 n = c.cols;
  const i64 opa_rows = (trans_a == Trans::kNo) ? a.rows : a.cols;
  const i64 opa_cols = (trans_a == Trans::kNo) ? a.cols : a.rows;
  const i64 opb_rows = (trans_b == Trans::kNo) ? b.rows : b.cols;
  const i64 opb_cols = (trans_b == Trans::kNo) ? b.cols : b.rows;
  PARMVN_EXPECTS(opa_rows == m);
  PARMVN_EXPECTS(opb_cols == n);
  PARMVN_EXPECTS(opa_cols == opb_rows);
  const i64 k = opa_cols;

  scale_matrix(beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;

  detail::gemm_packed(alpha, trans_a, a, trans_b, b, c);
}

void syrk(Trans trans, double alpha, ConstMatrixView a, double beta,
          MatrixView c) {
  const i64 n = c.rows;
  PARMVN_EXPECTS(c.cols == n);
  const i64 op_rows = (trans == Trans::kNo) ? a.rows : a.cols;
  PARMVN_EXPECTS(op_rows == n);

  // Block the lower triangle into column panels; off-diagonal panels are
  // plain (microkernel-backed) GEMMs, diagonal blocks are computed into a
  // scratch square and the lower part copied back so the strictly-upper
  // triangle of C stays intact.
  constexpr i64 kBlock = 128;
  for (i64 j0 = 0; j0 < n; j0 += kBlock) {
    const i64 jb = std::min(kBlock, n - j0);
    ConstMatrixView a_col =
        (trans == Trans::kNo) ? a.sub(j0, 0, jb, a.cols) : a.sub(0, j0, a.rows, jb);
    // Diagonal block.
    Matrix diag(jb, jb);
    if (trans == Trans::kNo) {
      gemm(Trans::kNo, Trans::kYes, alpha, a_col, a_col, 0.0, diag.view());
    } else {
      gemm(Trans::kYes, Trans::kNo, alpha, a_col, a_col, 0.0, diag.view());
    }
    for (i64 j = 0; j < jb; ++j)
      for (i64 i = j; i < jb; ++i) {
        double& cij = c(j0 + i, j0 + j);
        cij = (beta == 0.0 ? 0.0 : beta * cij) + diag(i, j);
      }
    // Sub-diagonal panel.
    const i64 i0 = j0 + jb;
    if (i0 < n) {
      ConstMatrixView a_row = (trans == Trans::kNo)
                                  ? a.sub(i0, 0, n - i0, a.cols)
                                  : a.sub(0, i0, a.rows, n - i0);
      MatrixView c_panel = c.sub(i0, j0, n - i0, jb);
      if (trans == Trans::kNo) {
        gemm(Trans::kNo, Trans::kYes, alpha, a_row, a_col, beta, c_panel);
      } else {
        gemm(Trans::kYes, Trans::kNo, alpha, a_row, a_col, beta, c_panel);
      }
    }
  }
}

namespace {

// Unblocked lower-triangular solves, used only on diagonal blocks whose size
// is <= the blocking factor; the bulk of the update flops flow through the
// blocked GEMM calls in trsm() below.
void trsm_left_no_unblocked(ConstMatrixView l, MatrixView b) {
  // B <- L^-1 B, forward substitution, column-wise over RHS.
  const i64 n = l.rows;
  for (i64 j = 0; j < b.cols; ++j) {
    double* __restrict bj = b.col(j);
    for (i64 k = 0; k < n; ++k) {
      bj[k] /= l(k, k);
      const double bkj = bj[k];
      const double* __restrict lk = l.col(k);
      for (i64 i = k + 1; i < n; ++i) bj[i] -= bkj * lk[i];
    }
  }
}

void trsm_left_trans_unblocked(ConstMatrixView l, MatrixView b) {
  // B <- L^-T B, backward substitution; dot over the (contiguous) column of L.
  const i64 n = l.rows;
  for (i64 j = 0; j < b.cols; ++j) {
    double* __restrict bj = b.col(j);
    for (i64 k = n - 1; k >= 0; --k) {
      const double* __restrict lk = l.col(k);
      double s = bj[k];
      for (i64 i = k + 1; i < n; ++i) s -= lk[i] * bj[i];
      bj[k] = s / lk[k];
    }
  }
}

void trsm_right_trans_unblocked(ConstMatrixView l, MatrixView b) {
  // B <- B L^-T: X(:,j) = (B(:,j) - sum_{k<j} X(:,k) L(j,k)) / L(j,j).
  const i64 n = l.rows;
  const i64 m = b.rows;
  for (i64 j = 0; j < n; ++j) {
    double* __restrict bj = b.col(j);
    for (i64 k = 0; k < j; ++k) {
      const double ljk = l(j, k);
      const double* __restrict bk = b.col(k);
      for (i64 i = 0; i < m; ++i) bj[i] -= ljk * bk[i];
    }
    const double inv = 1.0 / l(j, j);
    for (i64 i = 0; i < m; ++i) bj[i] *= inv;
  }
}

void trsm_right_no_unblocked(ConstMatrixView l, MatrixView b) {
  // B <- B L^-1: X(:,j) = (B(:,j) - sum_{k>j} X(:,k) L(k,j)) / L(j,j).
  const i64 n = l.rows;
  const i64 m = b.rows;
  for (i64 j = n - 1; j >= 0; --j) {
    double* __restrict bj = b.col(j);
    for (i64 k = j + 1; k < n; ++k) {
      const double lkj = l(k, j);
      const double* __restrict bk = b.col(k);
      for (i64 i = 0; i < m; ++i) bj[i] -= lkj * bk[i];
    }
    const double inv = 1.0 / l(j, j);
    for (i64 i = 0; i < m; ++i) bj[i] *= inv;
  }
}

// Diagonal block width. The unblocked substitution runs at gemv speed, so
// the block is kept narrow and nearly all flops go through the GEMMs; 16
// beat 8, 32, 64 and 128 on BM_trsm and BM_potrf at 128/256/512.
constexpr i64 kTrsmBlock = 16;

}  // namespace

void trsm(Side side, Trans trans, double alpha, ConstMatrixView l,
          MatrixView b) {
  PARMVN_EXPECTS(l.rows == l.cols);
  const i64 n = l.rows;
  PARMVN_EXPECTS((side == Side::kLeft ? b.rows : b.cols) == n);
  scale_matrix(alpha, b);
  // alpha == 0 zeroes B, and L^-1 * 0 == 0 exactly: substitution would be a
  // full triangular sweep over an all-zero B, so stop here (BLAS contract).
  if (alpha == 0.0) return;

  if (side == Side::kLeft && trans == Trans::kNo) {
    // Forward-substitute block rows: B_k solved, then B_i -= L_ik B_k.
    for (i64 k0 = 0; k0 < n; k0 += kTrsmBlock) {
      const i64 kb = std::min(kTrsmBlock, n - k0);
      MatrixView bk = b.sub(k0, 0, kb, b.cols);
      trsm_left_no_unblocked(l.sub(k0, k0, kb, kb), bk);
      if (k0 + kb < n) {
        gemm(Trans::kNo, Trans::kNo, -1.0, l.sub(k0 + kb, k0, n - k0 - kb, kb),
             bk, 1.0, b.sub(k0 + kb, 0, n - k0 - kb, b.cols));
      }
    }
  } else if (side == Side::kLeft && trans == Trans::kYes) {
    // Backward over block rows.
    for (i64 k0 = ((n - 1) / kTrsmBlock) * kTrsmBlock; k0 >= 0;
         k0 -= kTrsmBlock) {
      const i64 kb = std::min(kTrsmBlock, n - k0);
      MatrixView bk = b.sub(k0, 0, kb, b.cols);
      if (k0 + kb < n) {
        gemm(Trans::kYes, Trans::kNo, -1.0, l.sub(k0 + kb, k0, n - k0 - kb, kb),
             b.sub(k0 + kb, 0, n - k0 - kb, b.cols), 1.0, bk);
      }
      trsm_left_trans_unblocked(l.sub(k0, k0, kb, kb), bk);
      if (k0 == 0) break;
    }
  } else if (side == Side::kRight && trans == Trans::kYes) {
    // Forward over block columns of B.
    for (i64 k0 = 0; k0 < n; k0 += kTrsmBlock) {
      const i64 kb = std::min(kTrsmBlock, n - k0);
      MatrixView bk = b.sub(0, k0, b.rows, kb);
      trsm_right_trans_unblocked(l.sub(k0, k0, kb, kb), bk);
      if (k0 + kb < n) {
        // B(:, k+1:) -= B_k * L(k+1:, k)^T
        gemm(Trans::kNo, Trans::kYes, -1.0, bk,
             l.sub(k0 + kb, k0, n - k0 - kb, kb), 1.0,
             b.sub(0, k0 + kb, b.rows, n - k0 - kb));
      }
    }
  } else {  // kRight, kNo
    for (i64 k0 = ((n - 1) / kTrsmBlock) * kTrsmBlock; k0 >= 0;
         k0 -= kTrsmBlock) {
      const i64 kb = std::min(kTrsmBlock, n - k0);
      MatrixView bk = b.sub(0, k0, b.rows, kb);
      if (k0 + kb < n) {
        // B_k -= B(:, k+1:) * L(k+1:, k)
        gemm(Trans::kNo, Trans::kNo, -1.0, b.sub(0, k0 + kb, b.rows, n - k0 - kb),
             l.sub(k0 + kb, k0, n - k0 - kb, kb), 1.0, bk);
      }
      trsm_right_no_unblocked(l.sub(k0, k0, kb, kb), bk);
      if (k0 == 0) break;
    }
  }
}

void gemv(Trans trans, double alpha, ConstMatrixView a, const double* x,
          double beta, double* y) {
  if (trans == Trans::kNo) {
    const i64 m = a.rows;
    if (beta == 0.0) {
      std::fill(y, y + m, 0.0);
    } else if (beta != 1.0) {
      for (i64 i = 0; i < m; ++i) y[i] *= beta;
    }
    detail::gemv_notrans_simd(alpha, a, x, y);
  } else {
    detail::gemv_trans_simd(alpha, a, x, beta, y);
  }
}

double dot(i64 n, const double* x, const double* y) noexcept {
  return detail::dot_simd(n, x, y);
}

void axpy(i64 n, double alpha, const double* x, double* y) noexcept {
  for (i64 i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double frobenius_norm(ConstMatrixView a) noexcept {
  // Scaled accumulation to dodge overflow on pathological inputs.
  double scale = 0.0;
  double sumsq = 1.0;
  for (i64 j = 0; j < a.cols; ++j) {
    const double* aj = a.col(j);
    for (i64 i = 0; i < a.rows; ++i) {
      const double v = std::fabs(aj[i]);
      if (v == 0.0) continue;
      if (scale < v) {
        sumsq = 1.0 + sumsq * (scale / v) * (scale / v);
        scale = v;
      } else {
        sumsq += (v / scale) * (v / scale);
      }
    }
  }
  return scale * std::sqrt(sumsq);
}

double max_abs(ConstMatrixView a) noexcept {
  double best = 0.0;
  for (i64 j = 0; j < a.cols; ++j)
    for (i64 i = 0; i < a.rows; ++i)
      best = std::max(best, std::fabs(a(i, j)));
  return best;
}

double frobenius_diff(ConstMatrixView a, ConstMatrixView b) {
  PARMVN_EXPECTS(a.rows == b.rows && a.cols == b.cols);
  double sumsq = 0.0;
  for (i64 j = 0; j < a.cols; ++j)
    for (i64 i = 0; i < a.rows; ++i) {
      const double d = a(i, j) - b(i, j);
      sumsq += d * d;
    }
  return std::sqrt(sumsq);
}

}  // namespace parmvn::la
