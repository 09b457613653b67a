#include "vecchia/vecchia_kernel.hpp"

#include <algorithm>

#include "common/aligned.hpp"
#include "common/contracts.hpp"
#include "linalg/microkernel.hpp"
#include "stats/normal.hpp"

namespace parmvn::vecchia {

namespace {

constexpr double kUEps = 1e-16;

// Per-thread row scratch, mirroring core::qmc_tile_kernel's: mu (running
// conditional mean), a'/b' (standardised limits), phi/dv (batched CDF
// outputs), u/w (quantile argument, sample coordinates). Contents are fully
// rewritten every row.
struct RowScratch {
  aligned_vector<double> buf;
  double* mu = nullptr;
  double* av = nullptr;
  double* bv = nullptr;
  double* phi = nullptr;
  double* dv = nullptr;
  double* u = nullptr;
  double* w = nullptr;

  void ensure(i64 mc) {
    const i64 stride = (mc + 7) / 8 * 8;
    if (static_cast<i64>(buf.size()) < 7 * stride) {
      buf.resize(static_cast<std::size_t>(7 * stride));
    }
    mu = buf.data();
    av = mu + stride;
    bv = av + stride;
    phi = bv + stride;
    dv = phi + stride;
    u = dv + stride;
    w = u + stride;
  }
};

RowScratch& scratch() {
  thread_local RowScratch rs;
  return rs;
}

}  // namespace

void vecchia_tile_kernel(const VecchiaFactor& f, i64 r,
                         const stats::PointSet& pts, i64 col0,
                         std::span<const double> a, std::span<const double> b,
                         la::ConstMatrixView mean, la::MatrixView y, double* p,
                         double* prefix_acc) {
  const i64 m = f.tile_rows(r);
  const i64 row0 = r * f.tile_size();
  const i64 mc = mean.rows;
  PARMVN_EXPECTS(static_cast<i64>(a.size()) == m &&
                 static_cast<i64>(b.size()) == m);
  PARMVN_EXPECTS(mean.cols == m && y.cols == m);
  PARMVN_EXPECTS(y.rows == mc);

  RowScratch& rs = scratch();
  rs.ensure(mc);

  const ConditioningSets& sets = f.sets();
  const la::ConstMatrixView yc = y;  // read view of the growing panel
  for (i64 i = 0; i < m; ++i) {
    // mu = Y(:, in-tile set of i) * w + mean(:, i): the in-tile regression
    // contribution as a gather over the set's in-tile suffix (ascending,
    // reduction order a function of i only), then the external
    // contribution already accumulated in the mean panel.
    const i64 gi = row0 + i;
    const std::span<const i64> nb = sets.of(gi);
    const auto in_tile = std::lower_bound(nb.begin(), nb.end(), row0);
    const std::size_t q0 = static_cast<std::size_t>(in_tile - nb.begin());
    std::fill_n(rs.mu, mc, 0.0);
    la::detail::gemv_notrans_gather_simd(
        yc.sub(0, 0, mc, i), nb.subspan(q0), row0,
        f.weights().data() + sets.offsets[static_cast<std::size_t>(gi)] + q0,
        rs.mu);
    const double* __restrict mcol = mean.col(i);
    for (i64 j = 0; j < mc; ++j) rs.mu[j] += mcol[j];

    const double di = f.cond_sd()[static_cast<std::size_t>(gi)];
    const double ai = a[static_cast<std::size_t>(i)];
    const double bi = b[static_cast<std::size_t>(i)];
    for (i64 j = 0; j < mc; ++j) rs.av[j] = (ai - rs.mu[j]) / di;
    for (i64 j = 0; j < mc; ++j) rs.bv[j] = (bi - rs.mu[j]) / di;

    stats::norm_cdf_and_diff_batch(mc, rs.av, rs.bv, rs.phi, rs.dv);
    pts.fill_row(gi, col0, mc, rs.w);
    for (i64 j = 0; j < mc; ++j)
      rs.u[j] = std::clamp(rs.phi[j] + rs.w[j] * rs.dv[j], kUEps, 1.0 - kUEps);
    stats::norm_quantile_batch(mc, rs.u, y.col(i));

    // Realize the field value: x = mu + d * z (the dense kernel stores z
    // itself because its propagation GEMM carries the L factor; here the
    // weights regress on x directly).
    double* __restrict ycol = y.col(i);
    for (i64 j = 0; j < mc; ++j) ycol[j] = rs.mu[j] + di * ycol[j];

    for (i64 j = 0; j < mc; ++j) p[j] *= rs.dv[j];
    if (prefix_acc != nullptr) {
      double t = prefix_acc[i];
      for (i64 j = 0; j < mc; ++j) t += p[j];
      prefix_acc[i] = t;
    }
  }
}

}  // namespace parmvn::vecchia
