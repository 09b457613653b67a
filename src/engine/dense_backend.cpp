#include "engine/dense_backend.hpp"

#include "core/qmc_kernel.hpp"
#include "linalg/blas.hpp"

namespace parmvn::engine {

void DenseBackend::apply_update(i64 i, i64 r, la::ConstMatrixView y,
                                la::MatrixView mean, double beta) const {
  // Panels are sample-contiguous (samples x dims): M += Y L_ir^T over one
  // column tile of the batch. Each output element's reduction order in the
  // microkernel depends only on the k extent, so per-sample rows stay
  // bitwise independent of the panel height (the batched==single contract;
  // tests/test_linalg_blas.cpp's Gemm.RowsBitwiseIndependentOfPanelHeight
  // pins it). A partial last tile row takes L_ir's leading mean.cols rows;
  // no C entry depends on the call's column count either
  // (Gemm.ColsBitwiseIndependentOfPanelWidth).
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1.0, y,
           l_->tile(i, r).sub(0, 0, mean.cols, y.cols), beta, mean);
}

void DenseBackend::chain_step(i64 r, const stats::PointSet& pts, i64 col0,
                              std::span<const double> a,
                              std::span<const double> b,
                              la::ConstMatrixView mean, la::MatrixView y,
                              double* p, double* prefix_acc) const {
  // A partial last tile row (a.size() < tile_rows(r)) sweeps the diagonal
  // tile's leading block.
  const i64 rows = static_cast<i64>(a.size());
  core::qmc_tile_kernel(l_->tile(r, r).sub(0, 0, rows, rows), pts,
                        r * l_->tile_size(), col0, a, b, mean, y, p,
                        prefix_acc);
}

double DenseBackend::ep_row(
    i64 k, std::vector<std::pair<i64, double>>& parents) const {
  parents.clear();
  const i64 m = l_->tile_size();
  const i64 kt = k / m;
  const i64 l = k % m;
  for (i64 r = 0; r < kt; ++r) {
    const la::ConstMatrixView t = l_->tile(kt, r);
    for (i64 c = 0; c < t.cols; ++c) {
      const double w = t(l, c);
      if (w != 0.0) parents.emplace_back(r * m + c, w);
    }
  }
  const la::ConstMatrixView diag = l_->tile(kt, kt);
  for (i64 c = 0; c < l; ++c) {
    const double w = diag(l, c);
    if (w != 0.0) parents.emplace_back(kt * m + c, w);
  }
  return diag(l, l);
}

}  // namespace parmvn::engine
