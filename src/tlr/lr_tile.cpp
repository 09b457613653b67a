#include "tlr/lr_tile.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

namespace parmvn::tlr {

la::Matrix LowRankTile::to_dense() const {
  la::Matrix out(rows(), cols());
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1.0, u.view(), v.view(), 0.0,
           out.view());
  return out;
}

LowRankTile compress_block(la::ConstMatrixView a, double accuracy,
                           i64 max_rank) {
  PARMVN_EXPECTS(max_rank != 0);
  // HiCMA accuracy semantics: keep singular components down to
  // accuracy * sigma_1(tile) (RRQR pivot norms track the residual's leading
  // singular value; the first pivot anchors the scale). This relative rule
  // reproduces the paper's Fig. 5 rank structure: rough (weak-correlation)
  // tiles keep many components, smooth (strong-correlation) tiles few.
  la::RrqrResult r = la::rrqr_truncated(a, 0.0, max_rank, 0.0, accuracy);
  return LowRankTile{std::move(r.u), std::move(r.v)};
}

LowRankTile recompress(const LowRankTile& t, double accuracy, i64 max_rank) {
  PARMVN_EXPECTS(max_rank != 0);
  const i64 r = t.rank();
  // QR of both factors, SVD of the r x r core R_u R_v^T, then truncate.
  la::Matrix qu = la::to_matrix(t.u.view());
  la::Matrix qv = la::to_matrix(t.v.view());
  std::vector<double> tau_u, tau_v;
  la::householder_qr(qu.view(), tau_u);
  la::householder_qr(qv.view(), tau_v);
  const i64 ku = std::min(qu.rows(), r);
  const i64 kv = std::min(qv.rows(), r);
  // Core = R_u (ku x r) * R_v^T (r x kv).
  la::Matrix ru(ku, r), rv(kv, r);
  for (i64 j = 0; j < r; ++j) {
    for (i64 i = 0; i <= std::min(j, ku - 1); ++i) ru(i, j) = qu(i, j);
    for (i64 i = 0; i <= std::min(j, kv - 1); ++i) rv(i, j) = qv(i, j);
  }
  la::Matrix core(ku, kv);
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1.0, ru.view(), rv.view(), 0.0,
           core.view());
  const la::SvdResult svd = la::svd_jacobi(core.view());
  // The core's singular values are the tile's singular values; keep the
  // components with sigma_k >= accuracy * sigma_1 (HiCMA accuracy rule).
  // A zero tile stays the rank-1 zero tile (rrqr_truncated's convention):
  // with sigma_1 = 0 the threshold would keep every component.
  const double sigma1 = svd.sigma.front();
  if (sigma1 == 0.0)
    return LowRankTile{la::Matrix(t.rows(), 1), la::Matrix(t.cols(), 1)};
  i64 keep = la::truncation_rank_sv(svd.sigma, accuracy * sigma1);
  if (max_rank > 0) keep = std::min(keep, max_rank);

  // U = Q_u [W_k diag(sigma_k); 0], V = Q_v [Z_k; 0]: the reflectors are
  // applied to the `keep` kept columns only; no thin Q is formed.
  LowRankTile out;
  out.u = la::Matrix(t.rows(), keep);
  out.v = la::Matrix(t.cols(), keep);
  for (i64 j = 0; j < keep; ++j) {
    const double s = svd.sigma[static_cast<std::size_t>(j)];
    for (i64 i = 0; i < ku; ++i) out.u(i, j) = svd.u(i, j) * s;
    for (i64 i = 0; i < kv; ++i) out.v(i, j) = svd.v(i, j);
  }
  la::apply_q(qu.view(), tau_u, out.u.view());
  la::apply_q(qv.view(), tau_v, out.v.view());
  return out;
}

void add_lowrank_inplace(LowRankTile& t, double alpha, la::ConstMatrixView u2,
                         la::ConstMatrixView v2, double accuracy,
                         i64 max_rank) {
  PARMVN_EXPECTS(u2.rows == t.rows());
  PARMVN_EXPECTS(v2.rows == t.cols());
  PARMVN_EXPECTS(u2.cols == v2.cols);
  const i64 r1 = t.rank();
  const i64 r2 = u2.cols;
  LowRankTile wide;
  wide.u = la::Matrix(t.rows(), r1 + r2);
  wide.v = la::Matrix(t.cols(), r1 + r2);
  la::copy_into(t.u.view(), wide.u.sub(0, 0, t.rows(), r1));
  la::copy_into(t.v.view(), wide.v.sub(0, 0, t.cols(), r1));
  {
    la::MatrixView dst = wide.u.sub(0, r1, t.rows(), r2);
    for (i64 j = 0; j < r2; ++j)
      for (i64 i = 0; i < t.rows(); ++i) dst(i, j) = alpha * u2(i, j);
  }
  la::copy_into(v2, wide.v.sub(0, r1, t.cols(), r2));
  t = recompress(wide, accuracy, max_rank);
}

double lr_error_fro(const LowRankTile& t, la::ConstMatrixView a) {
  PARMVN_EXPECTS(a.rows == t.rows() && a.cols == t.cols());
  const la::Matrix d = t.to_dense();
  return la::frobenius_diff(d.view(), a);
}

}  // namespace parmvn::tlr
