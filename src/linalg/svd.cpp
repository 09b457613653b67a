#include "linalg/svd.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <numeric>

#include "common/contracts.hpp"
#include "linalg/blas.hpp"
#include "linalg/microkernel.hpp"
#include "linalg/qr.hpp"

namespace parmvn::la {

SvdResult svd_jacobi(ConstMatrixView a) {
  // Work on the tall orientation; transpose back at the end if needed.
  const bool transposed = a.rows < a.cols;
  Matrix work = transposed ? Matrix(a.cols, a.rows) : to_matrix(a);
  if (transposed) transpose_into(a, work.view());
  const i64 m = work.rows();
  const i64 n = work.cols();

  // Preconditioner (Drmac-Veselic): column-pivoted QR  work P = Q R, cut
  // where the largest remaining column norm drops to rounding level,
  // n eps |R_00| (|R_00| is the largest column norm, within sqrt(n) of
  // sigma_1). Dropping R's trailing rows perturbs the matrix by at most
  // ~n^1.5 eps sigma_1.
  Matrix qr = to_matrix(work.view());
  const detail::PivotedQr pq = detail::pivoted_qr(
      qr.view(), 0.0, n, 0.0, static_cast<double>(n) * DBL_EPSILON);
  const i64 k = pq.rank;
  SvdResult out;
  if (k == 0) {
    // The zero matrix: one zero component with unit singular vectors.
    out.sigma = {0.0};
    out.u = Matrix(a.rows, 1);
    out.v = Matrix(a.cols, 1);
    out.u(0, 0) = 1.0;
    out.v(0, 0) = 1.0;
    return out;
  }
  // X = P R^T (n x k): work ~= Q X^T, so work and X share their singular
  // values and X's left singular vectors are work's right ones. Jacobi on
  // R^T needs fewer sweeps than on `work` itself: the pivoting grades its
  // columns by decreasing norm (Drmac-Veselic), and it has only k columns.
  Matrix x(n, k);
  for (i64 j = 0; j < n; ++j) {
    const i64 orig = pq.perm[static_cast<std::size_t>(j)];
    const i64 top = std::min(j, k - 1);
    for (i64 i = 0; i <= top; ++i) x(orig, i) = qr(i, j);
  }

  // Cyclic one-sided Jacobi on X: orthogonalise column pairs until every
  // pair passes the LAPACK dgesvj test |x_p . x_q| <= sqrt(n) eps/2
  // |x_p| |x_q|. Column masses are cached and updated by the rotation
  // identity (x_p.x_p -= t x_p.x_q, x_q.x_q += t x_p.x_q), refreshed
  // exactly at each sweep and after heavy cancellation; only the right
  // singular vectors are wanted, so the rotations are not accumulated.
  MatrixView xv = x.view();
  const double tol = std::sqrt(static_cast<double>(n)) * 0.5 * DBL_EPSILON;
  std::vector<double> mass(static_cast<std::size_t>(k));
  const int max_sweeps = 60;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    for (i64 j = 0; j < k; ++j)
      mass[static_cast<std::size_t>(j)] = dot(n, xv.col(j), xv.col(j));
    bool rotated = false;
    for (i64 p = 0; p < k - 1; ++p) {
      for (i64 q = p + 1; q < k; ++q) {
        double& app = mass[static_cast<std::size_t>(p)];
        double& aqq = mass[static_cast<std::size_t>(q)];
        const double apq = dot(n, xv.col(p), xv.col(q));
        if (std::fabs(apq) <= tol * std::sqrt(app * aqq) || apq == 0.0)
          continue;
        rotated = true;
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta)), zeta);
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        detail::rot_simd(n, c, c * t, xv.col(p), xv.col(q));
        const double app_new = app - t * apq;
        app = app_new < 0.5 * app ? dot(n, xv.col(p), xv.col(p)) : app_new;
        aqq += t * apq;
      }
    }
    if (!rotated) break;
  }

  // Singular values = column norms, sorted descending; V = normalised
  // columns of X; U = work V Sigma^-1 (one GEMM, accurate to
  // eps sigma_1 / sigma_j per column, and U Sigma = work V to eps sigma_1).
  std::vector<double> sigma(static_cast<std::size_t>(k));
  for (i64 j = 0; j < k; ++j)
    sigma[static_cast<std::size_t>(j)] =
        std::sqrt(dot(n, xv.col(j), xv.col(j)));
  std::vector<i64> order(static_cast<std::size_t>(k));
  std::iota(order.begin(), order.end(), i64{0});
  std::stable_sort(order.begin(), order.end(), [&](i64 p, i64 q) {
    return sigma[static_cast<std::size_t>(p)] >
           sigma[static_cast<std::size_t>(q)];
  });
  out.sigma.resize(static_cast<std::size_t>(k));
  Matrix v(n, k);
  for (i64 j = 0; j < k; ++j) {
    const i64 src = order[static_cast<std::size_t>(j)];
    const double s = sigma[static_cast<std::size_t>(src)];
    out.sigma[static_cast<std::size_t>(j)] = s;
    const double* xs = xv.col(src);
    for (i64 i = 0; i < n; ++i) v(i, j) = xs[i] / s;
  }
  Matrix u(m, k);
  gemm(Trans::kNo, Trans::kNo, 1.0, work.view(), v.view(), 0.0, u.view());
  for (i64 j = 0; j < k; ++j) {
    const double inv = 1.0 / out.sigma[static_cast<std::size_t>(j)];
    double* uj = u.view().col(j);
    for (i64 i = 0; i < m; ++i) uj[i] *= inv;
  }
  out.u = std::move(u);
  out.v = std::move(v);
  if (transposed) std::swap(out.u, out.v);
  return out;
}

i64 truncation_rank_sv(const std::vector<double>& sigma, double threshold) {
  PARMVN_EXPECTS(!sigma.empty());
  i64 rank = 0;
  for (const double s : sigma) {
    if (s >= threshold) ++rank;
  }
  return std::max<i64>(rank, 1);
}

i64 truncation_rank(const std::vector<double>& sigma, double tol_fro) {
  PARMVN_EXPECTS(!sigma.empty());
  const i64 k = static_cast<i64>(sigma.size());
  // tail_sq[r] = sum_{i >= r} sigma_i^2; pick the smallest r with
  // tail_sq[r] <= tol^2.
  double tail_sq = 0.0;
  const double tol_sq = tol_fro * tol_fro;
  i64 rank = k;
  for (i64 r = k; r >= 1; --r) {
    const double s = sigma[static_cast<std::size_t>(r - 1)];
    if (tail_sq + s * s > tol_sq) break;
    tail_sq += s * s;
    rank = r - 1;
  }
  return std::max<i64>(rank, 1);
}

}  // namespace parmvn::la
