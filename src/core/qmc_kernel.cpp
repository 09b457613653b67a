#include "core/qmc_kernel.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "linalg/microkernel.hpp"
#include "stats/normal.hpp"

namespace parmvn::core {

namespace {
constexpr double kUEps = 1e-16;
}  // namespace

namespace detail {

RowScratch& row_scratch(i64 mc) {
  thread_local RowScratch rs;
  // Round each lane up to a cache line so the seven slices stay aligned.
  const i64 stride = (mc + 7) / 8 * 8;
  if (static_cast<i64>(rs.buf.size()) < 7 * stride)
    rs.buf.resize(static_cast<std::size_t>(7 * stride));
  rs.mu = rs.buf.data();
  rs.av = rs.mu + stride;
  rs.bv = rs.av + stride;
  rs.phi = rs.bv + stride;
  rs.d = rs.phi + stride;
  rs.u = rs.d + stride;
  rs.w = rs.u + stride;
  return rs;
}

void chain_row(RowScratch& rs, const stats::PointSet& pts, i64 dim, i64 col0,
               i64 mc, const double* mean, double a, double b, double sd,
               double* z, double* p, double* prefix) {
  for (i64 j = 0; j < mc; ++j) rs.mu[j] += mean[j];
  for (i64 j = 0; j < mc; ++j) rs.av[j] = (a - rs.mu[j]) / sd;
  for (i64 j = 0; j < mc; ++j) rs.bv[j] = (b - rs.mu[j]) / sd;

  // Batched transcendentals: Phi(a') and Phi(b') - Phi(a') fused (two
  // erfc evaluations per entry), then the whole row's quantiles.
  stats::norm_cdf_and_diff_batch(mc, rs.av, rs.bv, rs.phi, rs.d);
  pts.fill_row(dim, col0, mc, rs.w);
  for (i64 j = 0; j < mc; ++j)
    rs.u[j] = std::clamp(rs.phi[j] + rs.w[j] * rs.d[j], kUEps, 1.0 - kUEps);
  stats::norm_quantile_batch(mc, rs.u, z);

  for (i64 j = 0; j < mc; ++j) p[j] *= rs.d[j];
  if (prefix != nullptr) {
    // Ascending sample order, exactly the order the sample-major loop
    // used, so prefix accumulation stays panelling-independent.
    double t = *prefix;
    for (i64 j = 0; j < mc; ++j) t += p[j];
    *prefix = t;
  }
}

}  // namespace detail

void qmc_tile_kernel(la::ConstMatrixView l, const stats::PointSet& pts,
                     i64 row0, i64 col0, std::span<const double> a,
                     std::span<const double> b, la::ConstMatrixView mean,
                     la::MatrixView y, double* p, double* prefix_acc) {
  const i64 m = l.rows;
  const i64 mc = mean.rows;
  PARMVN_EXPECTS(l.cols == m);
  PARMVN_EXPECTS(static_cast<i64>(a.size()) == m &&
                 static_cast<i64>(b.size()) == m);
  PARMVN_EXPECTS(mean.cols == m && y.cols == m && y.rows == mc);

  detail::RowScratch& rs = detail::row_scratch(mc);
  const la::ConstMatrixView yc = y;  // read view of the growing panel
  for (i64 i = 0; i < m; ++i) {
    // s = Y(:, 0:i) * L(i, 0:i)^T over the whole sample panel: one
    // unit-stride SIMD axpy per previous chain step, reading the factor row
    // straight out of the column-major tile (stride l.ld). The per-sample
    // reduction order is ascending k — a function of i only.
    std::fill_n(rs.mu, mc, 0.0);
    la::detail::gemv_notrans_strided_simd(1.0, yc.sub(0, 0, mc, i),
                                          l.data + i, l.ld, rs.mu);
    const auto k = static_cast<std::size_t>(i);
    detail::chain_row(rs, pts, row0 + i, col0, mc, mean.col(i), a[k], b[k],
                      l(i, i), y.col(i), p,
                      prefix_acc != nullptr ? prefix_acc + i : nullptr);
  }
}

}  // namespace parmvn::core
