#include "core/qmc_kernel.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "linalg/blas.hpp"
#include "linalg/microkernel.hpp"
#include "stats/normal.hpp"

namespace parmvn::core {

namespace {
constexpr double kUEps = 1e-16;

// Rows per group of the blocked in-tile chain: one GEMM per group carries
// the earlier groups' terms, a strided gemv the in-group ones. Chosen by
// BM_qmc_kernel at m = 128/256/512 (16, 32 and 64 tried).
constexpr i64 kGroup = 32;
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
  // erfc evaluations per entry, one where b = +inf), then the whole row's
  // quantiles.
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
  for (i64 g0 = 0; g0 < m; g0 += kGroup) {
    const i64 gb = std::min(kGroup, m - g0);
    // Y(:, 0:g0) * L(g0:g0+gb, 0:g0)^T: every earlier group's share of
    // this group's means, as one GEMM. It lands in the group's own Y
    // columns, which stay unwritten until their row's draw replaces them.
    la::gemm(la::Trans::kNo, la::Trans::kYes, 1.0, yc.sub(0, 0, mc, g0),
             l.sub(g0, 0, gb, g0), 0.0, y.sub(0, g0, mc, gb));
    for (i64 i = g0; i < g0 + gb; ++i) {
      // The in-group rest, k = g0..i-1 ascending: one unit-stride SIMD
      // axpy per step, reading the factor row out of the column-major tile
      // (stride l.ld). Per sample the reduction order (GEMM over k < g0,
      // then ascending in-group k) is a function of i only, never of the
      // panel height. While g0 <= kKC the microkernel also sums from zero
      // in ascending k, so those rows round exactly as a per-row chain.
      std::copy_n(yc.col(i), mc, rs.mu);
      la::detail::gemv_notrans_strided_simd(1.0, yc.sub(0, g0, mc, i - g0),
                                            l.data + i + g0 * l.ld, l.ld,
                                            rs.mu);
      const auto k = static_cast<std::size_t>(i);
      detail::chain_row(rs, pts, row0 + i, col0, mc, mean.col(i), a[k], b[k],
                        l(i, i), y.col(i), p,
                        prefix_acc != nullptr ? prefix_acc + i : nullptr);
    }
  }
}

}  // namespace parmvn::core
