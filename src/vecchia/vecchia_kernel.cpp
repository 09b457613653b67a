#include "vecchia/vecchia_kernel.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "core/qmc_kernel.hpp"
#include "linalg/microkernel.hpp"

namespace parmvn::vecchia {

void vecchia_tile_kernel(const VecchiaFactor& f, i64 r,
                         const stats::PointSet& pts, i64 col0,
                         std::span<const double> a, std::span<const double> b,
                         la::ConstMatrixView mean, la::MatrixView y, double* p,
                         double* prefix_acc) {
  const i64 m = static_cast<i64>(a.size());
  const i64 row0 = r * f.tile_size();
  const i64 mc = mean.rows;
  PARMVN_EXPECTS(m >= 1 && m <= f.tile_rows(r) &&
                 static_cast<i64>(b.size()) == m);
  PARMVN_EXPECTS(mean.cols == m && y.cols == m);
  PARMVN_EXPECTS(y.rows == mc);

  core::detail::RowScratch& rs = core::detail::row_scratch(mc);
  const ConditioningSets& sets = f.sets();
  const la::ConstMatrixView yc = y;  // read view of the growing panel
  for (i64 i = 0; i < m; ++i) {
    // mu = Y(:, in-tile set of i) * w: the in-tile regression contribution
    // as a gather over the set's in-tile suffix (ascending, reduction order
    // a function of i only); chain_row adds the external contribution
    // already accumulated in the mean panel.
    const i64 gi = row0 + i;
    const std::span<const i64> nb = sets.of(gi);
    const auto in_tile = std::lower_bound(nb.begin(), nb.end(), row0);
    const std::size_t q0 = static_cast<std::size_t>(in_tile - nb.begin());
    std::fill_n(rs.mu, mc, 0.0);
    la::detail::gemv_notrans_gather_simd(
        yc.sub(0, 0, mc, i), nb.subspan(q0), row0,
        f.weights().data() + sets.offsets[static_cast<std::size_t>(gi)] + q0,
        rs.mu);
    const double di = f.cond_sd()[static_cast<std::size_t>(gi)];
    const auto k = static_cast<std::size_t>(i);
    core::detail::chain_row(rs, pts, gi, col0, mc, mean.col(i), a[k], b[k], di,
                            y.col(i), p,
                            prefix_acc != nullptr ? prefix_acc + i : nullptr);

    // Realize the field value: x = mu + d * z (the dense kernel keeps z
    // itself because its mean GEMMs carry the L factor; here the weights
    // regress on x directly).
    double* __restrict ycol = y.col(i);
    for (i64 j = 0; j < mc; ++j) ycol[j] = rs.mu[j] + di * ycol[j];
  }
}

}  // namespace parmvn::vecchia
