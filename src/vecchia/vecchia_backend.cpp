#include "vecchia/vecchia_backend.hpp"

#include "linalg/blas.hpp"
#include "vecchia/vecchia_kernel.hpp"

namespace parmvn::vecchia {

void VecchiaBackend::accumulate_external(
    i64 r, std::span<const la::ConstMatrixView> y_panels, i64 row_off,
    i64 nrows, la::MatrixView mean_tile) const {
  // mean(:, li) += w * Y[k / tile](:, k % tile) over the column tile's
  // sample rows for each cross-tile neighbour k of row li: the ascending
  // set's prefix below the tile, one unit-stride axpy per weight, rows in
  // ascending order. Per-sample independence keeps fused batches bitwise
  // equal to single-query runs. A partial last tile row folds only its
  // mean_tile.cols leading rows.
  const VecchiaFactor& f = *v_;
  const i64 tile = f.tile_size();
  const i64 row0 = r * tile;
  const ConditioningSets& sets = f.sets();
  for (i64 li = 0; li < mean_tile.cols; ++li) {
    const i64 i = row0 + li;
    const std::span<const i64> nb = sets.of(i);
    const double* w =
        f.weights().data() + sets.offsets[static_cast<std::size_t>(i)];
    for (std::size_t q = 0; q < nb.size() && nb[q] < row0; ++q) {
      const la::ConstMatrixView src =
          y_panels[static_cast<std::size_t>(nb[q] / tile)];
      la::axpy(nrows, w[q], src.col(nb[q] % tile) + row_off,
               mean_tile.col(li));
    }
  }
}

void VecchiaBackend::chain_step(i64 r, const stats::PointSet& pts, i64 col0,
                                std::span<const double> a,
                                std::span<const double> b,
                                la::ConstMatrixView mean, la::MatrixView y,
                                double* p, double* prefix_acc) const {
  vecchia_tile_kernel(*v_, r, pts, col0, a, b, mean, y, p, prefix_acc);
}

double VecchiaBackend::ep_row(
    i64 k, std::vector<std::pair<i64, double>>& parents) const {
  // The generative row is the conditioning regression itself: neighbours
  // are stored ascending (ConditioningSets), weights CSR-aligned.
  parents.clear();
  const std::span<const i64> nb = v_->sets().of(k);
  const std::span<const double> w =
      v_->weights().subspan(static_cast<std::size_t>(v_->sets().offsets[
                                static_cast<std::size_t>(k)]),
                            nb.size());
  for (std::size_t j = 0; j < nb.size(); ++j)
    parents.emplace_back(nb[j], w[j]);
  return v_->cond_sd()[static_cast<std::size_t>(k)];
}

}  // namespace parmvn::vecchia
