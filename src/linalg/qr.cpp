#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "linalg/blas.hpp"

namespace parmvn::la {

namespace {

// Generate a Householder reflector for x = (alpha, rest...) of length len:
// H x = (beta, 0...). Returns tau; x is overwritten with v (v[0]=1 implied,
// stored from index 1) and x[0] = beta.
double make_reflector(double* x, i64 len) {
  if (len <= 1) return 0.0;
  const double xnorm = dot(len - 1, x + 1, x + 1);
  if (xnorm == 0.0) return 0.0;
  const double alpha = x[0];
  double beta = -std::copysign(std::sqrt(alpha * alpha + xnorm), alpha);
  const double tau = (beta - alpha) / beta;
  const double inv = 1.0 / (alpha - beta);
  for (i64 i = 1; i < len; ++i) x[i] *= inv;
  x[0] = beta;
  return tau;
}

// Apply H = I - tau v v^T (v packed under column j of `a`, v0 = 1) to the
// columns a(j:, j+1 : j_end) — the level-2 update inside one panel, as in
// LAPACK dlarf: w = tau C^T v by one GEMV, then C -= v w^T as a k = 1 GEMM.
void apply_reflector(MatrixView a, i64 j, i64 j_end, double tau) {
  const i64 nc = j_end - j - 1;
  if (tau == 0.0 || nc <= 0) return;
  const i64 len = a.rows - j;
  const MatrixView v = a.sub(j, j, len, 1);
  const MatrixView c = a.sub(j, j + 1, len, nc);
  const double beta = v(0, 0);
  v(0, 0) = 1.0;
  Matrix w(nc, 1);
  gemv(Trans::kYes, tau, c, v.col(0), 0.0, w.view().col(0));
  gemm(Trans::kNo, Trans::kYes, -1.0, v, w.view(), 1.0, c);
  v(0, 0) = beta;
}

// Explicit unit lower-trapezoidal V of the reflectors stored in `panel`
// (their first row is the panel's first row).
Matrix unit_lower(ConstMatrixView panel) {
  Matrix v(panel.rows, panel.cols);
  for (i64 j = 0; j < panel.cols && j < panel.rows; ++j) {
    v(j, j) = 1.0;
    for (i64 i = j + 1; i < panel.rows; ++i) v(i, j) = panel(i, j);
  }
  return v;
}

// Upper-triangular T of the compact WY form H_0 ... H_{b-1} = I - V T V^T
// (LAPACK dlarft, forward, columnwise): T(i,i) = tau_i and
// T(0:i, i) = -tau_i T(0:i, 0:i) V(:, 0:i)^T v_i, with the V^T V products
// taken from one GEMM.
Matrix wy_factor(ConstMatrixView v, const double* tau) {
  const i64 b = v.cols;
  Matrix gram(b, b);
  gemm(Trans::kYes, Trans::kNo, 1.0, v, v, 0.0, gram.view());
  Matrix t(b, b);
  for (i64 i = 0; i < b; ++i) {
    const double ti = tau[i];
    t(i, i) = ti;
    for (i64 p = 0; p < i; ++p) {
      double s = 0.0;
      for (i64 q = p; q < i; ++q) s += t(p, q) * gram(q, i);
      t(p, i) = -ti * s;
    }
  }
  return t;
}

// C <- (I - V op(T) V^T) C: op = kNo applies H_0 ... H_{b-1} (Q), kYes its
// transpose (the QR trailing update).
void apply_block(ConstMatrixView v, ConstMatrixView t, Trans op,
                 MatrixView c) {
  const i64 b = v.cols;
  Matrix w(b, c.cols);
  gemm(Trans::kYes, Trans::kNo, 1.0, v, c, 0.0, w.view());
  Matrix tw(b, c.cols);
  gemm(op, Trans::kNo, 1.0, t, w.view(), 0.0, tw.view());
  gemm(Trans::kNo, Trans::kNo, -1.0, v, tw.view(), 1.0, c);
}

// Q C = H_0 (H_1 (... (H_{k-1} C))), one compact-WY block at a time from
// the last to the first. With `from_identity` C enters as [I_k; 0] (the
// thin Q): when block j0 is applied, C's columns < j0 are still unit
// vectors with no entries in rows >= j0, so the block skips them (LAPACK
// dorgqr's saving).
void apply_q_blocked(ConstMatrixView qr, std::span<const double> tau,
                     MatrixView c, bool from_identity) {
  const i64 m = qr.rows;
  const i64 k = static_cast<i64>(tau.size());
  PARMVN_EXPECTS(c.rows == m);
  PARMVN_EXPECTS(k <= std::min(m, qr.cols));
  if (k == 0 || c.cols == 0) return;
  for (i64 j0 = ((k - 1) / kQrPanel) * kQrPanel; j0 >= 0; j0 -= kQrPanel) {
    const i64 jb = std::min(kQrPanel, k - j0);
    const i64 c0 = from_identity ? j0 : 0;
    const Matrix v = unit_lower(qr.sub(j0, j0, m - j0, jb));
    const Matrix t = wy_factor(v.view(), tau.data() + j0);
    apply_block(v.view(), t.view(), Trans::kNo,
                c.sub(j0, c0, m - j0, c.cols - c0));
  }
}

}  // namespace

void householder_qr(MatrixView a, std::vector<double>& tau) {
  const i64 m = a.rows;
  const i64 n = a.cols;
  const i64 k = std::min(m, n);
  tau.assign(static_cast<std::size_t>(k), 0.0);
  for (i64 j0 = 0; j0 < k; j0 += kQrPanel) {
    const i64 jb = std::min(kQrPanel, k - j0);
    for (i64 j = j0; j < j0 + jb; ++j) {
      tau[static_cast<std::size_t>(j)] = make_reflector(a.col(j) + j, m - j);
      apply_reflector(a, j, j0 + jb, tau[static_cast<std::size_t>(j)]);
    }
    if (j0 + jb < n) {
      const Matrix v = unit_lower(a.sub(j0, j0, m - j0, jb));
      const Matrix t = wy_factor(v.view(), tau.data() + j0);
      apply_block(v.view(), t.view(), Trans::kYes,
                  a.sub(j0, j0 + jb, m - j0, n - j0 - jb));
    }
  }
}

void apply_q(ConstMatrixView qr, std::span<const double> tau, MatrixView c) {
  apply_q_blocked(qr, tau, c, false);
}

namespace detail {

PivotedQr pivoted_qr(MatrixView w, double tol_fro, i64 limit, double tol_pivot,
                     double tol_pivot_rel) {
  const i64 m = w.rows;
  const i64 n = w.cols;
  PARMVN_EXPECTS(limit >= 0 && limit <= std::min(m, n));
  PivotedQr out;
  out.perm.resize(static_cast<std::size_t>(n));
  for (i64 j = 0; j < n; ++j) out.perm[static_cast<std::size_t>(j)] = j;
  out.tau.reserve(static_cast<std::size_t>(limit));
  std::vector<double> colsq(static_cast<std::size_t>(n));
  double residual_sq = 0.0;
  for (i64 j = 0; j < n; ++j) {
    colsq[static_cast<std::size_t>(j)] = dot(m, w.col(j), w.col(j));
    residual_sq += colsq[static_cast<std::size_t>(j)];
  }
  // A NaN mass fails every `>` test below, so the factorisation would stop
  // at rank 0 and report the zero matrix.
  if (!std::isfinite(residual_sq))
    throw Error("pivoted_qr: non-finite column mass (NaN or inf input)");
  // Column mass at the last exact (re)computation — LAPACK dgeqp3's vn2.
  // Downdate drift accumulates relative to this value, not the running
  // per-step mass, so the recompute guard must be measured against it.
  std::vector<double> mass_at_recompute = colsq;
  std::vector<char> stale(static_cast<std::size_t>(n), 0);
  const double tol_sq = tol_fro * tol_fro;
  double tol_pivot_sq = tol_pivot * tol_pivot;

  // dlaqps's F: after step s of a panel starting at column j0, the trailing
  // columns j satisfy  w_true(rows >= row, j) = w(rows >= row, j) -
  // V(:, 0:s) F(j, 0:s)^T, with V the panel's reflectors. Rows of F are
  // indexed by column.
  Matrix f(n, kQrPanel);
  std::vector<double> x(static_cast<std::size_t>(kQrPanel) + 1);
  std::vector<double> rowbuf(static_cast<std::size_t>(n));
  i64 rank = 0;
  bool done = false;
  while (!done) {
    const i64 j0 = rank;
    i64 kb = 0;  // steps taken in this panel
    bool recompute = false;
    while (kb < kQrPanel) {
      if (!(rank < limit && residual_sq > tol_sq)) {
        done = true;
        break;
      }
      // Pivot: bring the column with the largest remaining mass to position
      // `rank`.
      i64 pivot = rank;
      for (i64 j = rank + 1; j < n; ++j) {
        if (colsq[static_cast<std::size_t>(j)] >
            colsq[static_cast<std::size_t>(pivot)])
          pivot = j;
      }
      if (rank == 0 && tol_pivot_rel > 0.0) {
        // Anchor the relative threshold to the leading pivot's scale.
        const double anchor_sq = colsq[static_cast<std::size_t>(pivot)] *
                                 tol_pivot_rel * tol_pivot_rel;
        tol_pivot_sq = std::max(tol_pivot_sq, anchor_sq);
      }
      if (tol_pivot_sq > 0.0 && rank > 0 &&
          colsq[static_cast<std::size_t>(pivot)] <= tol_pivot_sq) {
        done = true;
        break;
      }
      const i64 c = rank;
      if (pivot != c) {
        std::swap_ranges(w.col(c), w.col(c) + m, w.col(pivot));
        for (i64 s = 0; s < kb; ++s) std::swap(f(c, s), f(pivot, s));
        std::swap(colsq[static_cast<std::size_t>(c)],
                  colsq[static_cast<std::size_t>(pivot)]);
        std::swap(mass_at_recompute[static_cast<std::size_t>(c)],
                  mass_at_recompute[static_cast<std::size_t>(pivot)]);
        std::swap(out.perm[static_cast<std::size_t>(c)],
                  out.perm[static_cast<std::size_t>(pivot)]);
      }
      const ConstMatrixView v_prev = w.sub(c, j0, m - c, kb);
      // Bring the pivot column up to date with this panel's reflectors.
      if (kb > 0) {
        for (i64 s = 0; s < kb; ++s) x[static_cast<std::size_t>(s)] = f(c, s);
        gemv(Trans::kNo, -1.0, v_prev, x.data(), 1.0, w.col(c) + c);
      }
      const double tau = make_reflector(w.col(c) + c, m - c);
      out.tau.push_back(tau);
      const double beta = w(c, c);
      w(c, c) = 1.0;
      const double* v = w.col(c) + c;
      // F(c+1:, kb) = tau (w(c:, c+1:)^T v - F(c+1:, 0:kb) V_prev^T v).
      const i64 nt = n - c - 1;
      double* fk = f.view().col(kb) + c + 1;
      gemv(Trans::kYes, tau, w.sub(c, c + 1, m - c, nt), v, 0.0, fk);
      if (kb > 0) {
        gemv(Trans::kYes, -tau, v_prev, v, 0.0, x.data());
        gemv(Trans::kNo, 1.0, f.sub(c + 1, 0, nt, kb), x.data(), 1.0, fk);
      }
      // Pivot row of R: w(c, c+1:) -= w(c, j0:c+1) F(c+1:, 0:kb+1)^T.
      for (i64 s = 0; s <= kb; ++s)
        x[static_cast<std::size_t>(s)] = w(c, j0 + s);
      gemv(Trans::kNo, 1.0, f.sub(c + 1, 0, nt, kb + 1), x.data(), 0.0,
           rowbuf.data());
      for (i64 j = 0; j < nt; ++j)
        w(c, c + 1 + j) -= rowbuf[static_cast<std::size_t>(j)];
      w(c, c) = beta;

      // Downdate the trailing column masses and the residual with the new
      // row of R. A column whose mass cancels past the guard — sqrt(eps)
      // relative to the mass at its last exact computation, LAPACK
      // dgeqp3's tol3z against the vn1/vn2 pair, because downdating drift
      // accumulates as ~eps * that mass across steps — is recomputed
      // exactly; that needs the trailing update, so it ends the panel.
      constexpr double kDowndateGuard = 1.5e-8;  // ~sqrt(DBL_EPSILON)
      residual_sq = 0.0;
      for (i64 j = c + 1; j < n; ++j) {
        const double rkj = w(c, j);
        const double cj = colsq[static_cast<std::size_t>(j)] - rkj * rkj;
        if (cj <
            kDowndateGuard * mass_at_recompute[static_cast<std::size_t>(j)]) {
          stale[static_cast<std::size_t>(j)] = 1;
          recompute = true;
        }
        colsq[static_cast<std::size_t>(j)] = cj;
        residual_sq += cj;
      }
      ++rank;
      ++kb;
      if (recompute) break;
    }
    if (done) break;
    // Trailing update, once per panel: w(rank:, rank:) -= V F(rank:, :)^T.
    if (rank < m && rank < n) {
      gemm(Trans::kNo, Trans::kYes, -1.0, w.sub(rank, j0, m - rank, kb),
           f.sub(rank, 0, n - rank, kb), 1.0,
           w.sub(rank, rank, m - rank, n - rank));
    }
    if (recompute) {
      residual_sq = 0.0;
      for (i64 j = rank; j < n; ++j) {
        if (stale[static_cast<std::size_t>(j)]) {
          const double cj = dot(m - rank, w.col(j) + rank, w.col(j) + rank);
          colsq[static_cast<std::size_t>(j)] = cj;
          mass_at_recompute[static_cast<std::size_t>(j)] = cj;
          stale[static_cast<std::size_t>(j)] = 0;
        }
        residual_sq += colsq[static_cast<std::size_t>(j)];
      }
    }
  }
  out.rank = rank;
  out.residual_sq = residual_sq;
  return out;
}

}  // namespace detail

RrqrResult rrqr_truncated(ConstMatrixView a, double tol_fro, i64 max_rank,
                          double tol_pivot, double tol_pivot_rel) {
  const i64 m = a.rows;
  const i64 n = a.cols;
  const i64 kmax = std::min(m, n);
  const i64 limit = (max_rank < 0) ? kmax : std::min(max_rank, kmax);

  Matrix work = to_matrix(a);
  MatrixView w = work.view();
  const detail::PivotedQr qr =
      detail::pivoted_qr(w, tol_fro, limit, tol_pivot, tol_pivot_rel);
  const i64 rank = qr.rank;

  RrqrResult out;
  out.residual_fro = std::sqrt(std::max(qr.residual_sq, 0.0));
  if (rank == 0) {
    // Tile is zero to within tolerance: represent as a rank-1 zero factor so
    // callers never deal with empty matrices.
    out.u = Matrix(m, 1);
    out.v = Matrix(n, 1);
    out.rank = 1;
    return out;
  }
  out.rank = rank;
  out.u = Matrix(m, rank);
  for (i64 j = 0; j < rank; ++j) out.u(j, j) = 1.0;
  apply_q_blocked(w, qr.tau, out.u.view(), true);
  // A P ~= Q R  =>  A ~= Q (R P^T), so V(perm[j], :) = R(0:rank, j)^T.
  // Entries of column j below row j hold reflector storage, not R; R's
  // column j is zero below row min(j, rank-1).
  out.v = Matrix(n, rank);
  for (i64 j = 0; j < n; ++j) {
    const i64 orig = qr.perm[static_cast<std::size_t>(j)];
    const i64 top = std::min(j, rank - 1);
    for (i64 i = 0; i <= top; ++i) out.v(orig, i) = w(i, j);
  }
  return out;
}

}  // namespace parmvn::la
