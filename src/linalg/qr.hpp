// Householder QR and rank-revealing (column-pivoted) QR.
//
// RRQR is the workhorse of tile compression: an m x n tile A is approximated
// by Q_r (R_r P^T) with r chosen so the *exact* Frobenius residual
// ||A - U V^T||_F <= tol (the trailing column sum-of-squares is tracked
// during pivoting, so the stopping rule is not a heuristic).
//
// All three factorisations run at BLAS-3 speed: reflectors are generated a
// panel of kQrPanel columns at a time and the rest of the matrix is updated
// once per panel through the compact WY form H_0 ... H_{b-1} = I - V T V^T
// (LAPACK dgeqrf/dlarft/dlarfb), so the bulk of the flops go through
// la::gemm. The pivoted variant is LAPACK's dgeqp3/dlaqps scheme: per step
// only the pivot column and the pivot row are brought up to date, and the
// trailing matrix is updated by one GEMM per panel. Reflectors are never
// expanded into an explicit Q unless a caller asks for one (apply_q).
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace parmvn::la {

/// Panel width of the blocked factorisations (columns per compact-WY block).
inline constexpr i64 kQrPanel = 32;

/// In-place Householder QR of a (m x n): on return the upper triangle holds
/// R and the columns below the diagonal hold the Householder vectors;
/// tau[j] are the reflector scalings (LAPACK dgeqrf layout).
void householder_qr(MatrixView a, std::vector<double>& tau);

/// C <- Q C (LAPACK dormqr, side L, no transpose), with Q = H_0 H_1 ...
/// H_{k-1} the m x m orthogonal factor whose k = tau.size() reflectors are
/// stored below the diagonal of `qr` (householder_qr's layout); C has m
/// rows. Applying Q to [I_k; 0] gives the thin Q; applying it to [X; 0]
/// gives Q_k X without ever forming Q.
void apply_q(ConstMatrixView qr, std::span<const double> tau, MatrixView c);

/// Result of a truncated rank-revealing QR: A ~= U * V^T with U (m x rank)
/// orthonormal and V (n x rank); `residual_fro` is the exact Frobenius norm
/// of the dropped part.
struct RrqrResult {
  Matrix u;
  Matrix v;
  i64 rank = 0;
  double residual_fro = 0.0;
};

/// Column-pivoted QR truncated at the first of:
///  * absolute Frobenius tolerance `tol_fro`: the not-yet-factored residual
///    satisfies ||residual||_F <= tol_fro;
///  * pivot threshold `tol_pivot` (0 disables): the largest remaining column
///    norm — a proxy for the residual's leading singular value, the
///    LAPACK-style rank rule — drops to <= tol_pivot;
///  * relative pivot threshold `tol_pivot_rel` (0 disables): like tol_pivot
///    but measured against the *first* pivot's column norm (ie. relative to
///    the block's spectral scale — the HiCMA accuracy semantics);
///  * `max_rank` columns (max_rank < 0 means unlimited).
/// Throws parmvn::Error on a NaN or inf entry.
[[nodiscard]] RrqrResult rrqr_truncated(ConstMatrixView a, double tol_fro,
                                        i64 max_rank, double tol_pivot = 0.0,
                                        double tol_pivot_rel = 0.0);

namespace detail {

/// The factorisation behind rrqr_truncated, in place and without forming
/// U: on return rows 0..rank-1 of `w` hold R of w(:, perm) (upper
/// trapezoidal; below-diagonal entries of the leading `rank` columns are
/// reflector storage) and tau.size() == rank. `limit` is the rank cap
/// (0 <= limit <= min(m, n)). svd_jacobi uses it as its preconditioner.
/// Throws parmvn::Error when a column mass is not finite (a NaN or inf
/// entry), which would otherwise read as the zero matrix.
struct PivotedQr {
  i64 rank = 0;
  std::vector<double> tau;
  std::vector<i64> perm;  // w's column j is the input's column perm[j]
  double residual_sq = 0.0;
};
[[nodiscard]] PivotedQr pivoted_qr(MatrixView w, double tol_fro, i64 limit,
                                   double tol_pivot, double tol_pivot_rel);

}  // namespace detail

}  // namespace parmvn::la
