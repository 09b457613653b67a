#include "engine/tlr_backend.hpp"

#include "core/qmc_kernel.hpp"
#include "linalg/blas.hpp"
#include "tlr/lr_tile.hpp"

namespace parmvn::engine {

void TlrBackend::apply_update(i64 i, i64 r, la::ConstMatrixView y,
                              la::MatrixView mean, double beta) const {
  // L_ir = U V^T, so M += (Y V) U^T: two skinny GEMMs through the rank. A
  // partial last tile row takes U's leading mean.cols rows.
  const tlr::LowRankTile& t = l_->lr(i, r);
  la::Matrix tmp(y.rows, t.rank());
  la::gemm(la::Trans::kNo, la::Trans::kNo, 1.0, y, t.v.view(), 0.0,
           tmp.view());
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1.0, tmp.view(),
           t.u.view().sub(0, 0, mean.cols, t.rank()), beta, mean);
}

void TlrBackend::chain_step(i64 r, const stats::PointSet& pts, i64 col0,
                            std::span<const double> a,
                            std::span<const double> b, la::ConstMatrixView mean,
                            la::MatrixView y, double* p,
                            double* prefix_acc) const {
  // A partial last tile row (a.size() < tile_rows(r)) sweeps the diagonal
  // tile's leading block.
  const i64 rows = static_cast<i64>(a.size());
  core::qmc_tile_kernel(l_->diag(r).sub(0, 0, rows, rows), pts,
                        r * l_->tile_size(), col0, a, b, mean, y, p,
                        prefix_acc);
}

double TlrBackend::ep_row(i64 k,
                          std::vector<std::pair<i64, double>>& parents) const {
  parents.clear();
  const i64 m = l_->tile_size();
  const i64 kt = k / m;
  const i64 l = k % m;
  for (i64 r = 0; r < kt; ++r) {
    // Row l of L_{kt,r} = U V^T: dot row l of U against each row of V.
    const tlr::LowRankTile& t = l_->lr(kt, r);
    const la::ConstMatrixView u = t.u.view();
    const la::ConstMatrixView v = t.v.view();
    const i64 rank = t.rank();
    for (i64 c = 0; c < v.rows; ++c) {
      double w = 0.0;
      for (i64 q = 0; q < rank; ++q) w += u(l, q) * v(c, q);
      if (w != 0.0) parents.emplace_back(r * m + c, w);
    }
  }
  const la::ConstMatrixView diag = l_->diag(kt);
  for (i64 c = 0; c < l; ++c) {
    const double w = diag(l, c);
    if (w != 0.0) parents.emplace_back(kt * m + c, w);
  }
  return diag(l, l);
}

}  // namespace parmvn::engine
