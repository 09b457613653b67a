#include "core/qmc_kernel.hpp"

#include <algorithm>
#include <limits>

#include "common/aligned.hpp"
#include "common/contracts.hpp"
#include "linalg/microkernel.hpp"
#include "stats/normal.hpp"

namespace parmvn::core {

namespace {

constexpr double kUEps = 1e-16;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Per-thread row scratch: s (triangular products), a'/b' (standardised
// limits), phi/d (batched CDF outputs), u/w (quantile argument, sample
// coordinates). Sized to the widest panel this worker has seen; contents
// are fully rewritten every row, so reuse cannot leak state between tasks.
struct RowScratch {
  aligned_vector<double> buf;
  double* s = nullptr;
  double* av = nullptr;
  double* bv = nullptr;
  double* phi = nullptr;
  double* d = nullptr;
  double* u = nullptr;
  double* w = nullptr;

  void ensure(i64 mc) {
    // Round each lane up to a cache line so the seven slices stay aligned.
    const i64 stride = (mc + 7) / 8 * 8;
    if (static_cast<i64>(buf.size()) < 7 * stride) {
      buf.resize(static_cast<std::size_t>(7 * stride));
    }
    s = buf.data();
    av = s + stride;
    bv = av + stride;
    phi = bv + stride;
    d = phi + stride;
    u = d + stride;
    w = u + stride;
  }
};

RowScratch& scratch() {
  thread_local RowScratch rs;
  return rs;
}

}  // namespace

void qmc_tile_kernel(la::ConstMatrixView l, const stats::PointSet& pts,
                     i64 row0, i64 col0, la::ConstMatrixView a,
                     la::ConstMatrixView b, la::MatrixView y, double* p,
                     double* prefix_acc) {
  const i64 m = l.rows;
  const i64 mc = a.rows;
  PARMVN_EXPECTS(l.cols == m);
  // An empty b (data == nullptr) is an all-+inf upper panel.
  const bool upper = b.data != nullptr;
  PARMVN_EXPECTS(a.cols == m && y.cols == m && y.rows == mc);
  PARMVN_EXPECTS(!upper || (b.cols == m && b.rows == mc));

  RowScratch& rs = scratch();
  rs.ensure(mc);

  const la::ConstMatrixView yc = y;  // read view of the growing panel
  for (i64 i = 0; i < m; ++i) {
    // s = Y(:, 0:i) * L(i, 0:i)^T over the whole sample panel: one
    // unit-stride SIMD axpy per previous chain step, reading the factor row
    // straight out of the column-major tile (stride l.ld). The per-sample
    // reduction order is ascending k — a function of i only.
    std::fill_n(rs.s, mc, 0.0);
    la::detail::gemv_notrans_strided_simd(1.0, yc.sub(0, 0, mc, i),
                                          l.data + i, l.ld, rs.s);

    const double lii = l(i, i);
    const double* __restrict acol = a.col(i);
    for (i64 j = 0; j < mc; ++j) rs.av[j] = (acol[j] - rs.s[j]) / lii;
    if (upper) {
      const double* __restrict bcol = b.col(i);
      for (i64 j = 0; j < mc; ++j) rs.bv[j] = (bcol[j] - rs.s[j]) / lii;
    } else {
      // (+inf - s) / l_ii with s finite and l_ii > 0: the same bits.
      std::fill_n(rs.bv, mc, kInf);
    }

    // Batched transcendentals: Phi(a') and Phi(b') - Phi(a') fused (two
    // erfc evaluations per entry), then the whole row's quantiles.
    stats::norm_cdf_and_diff_batch(mc, rs.av, rs.bv, rs.phi, rs.d);
    pts.fill_row(row0 + i, col0, mc, rs.w);
    for (i64 j = 0; j < mc; ++j)
      rs.u[j] = std::clamp(rs.phi[j] + rs.w[j] * rs.d[j], kUEps, 1.0 - kUEps);
    stats::norm_quantile_batch(mc, rs.u, y.col(i));

    for (i64 j = 0; j < mc; ++j) p[j] *= rs.d[j];
    if (prefix_acc != nullptr) {
      // Ascending sample order, exactly the order the sample-major loop
      // used, so prefix accumulation stays panelling-independent.
      double t = prefix_acc[i];
      for (i64 j = 0; j < mc; ++j) t += p[j];
      prefix_acc[i] = t;
    }
  }
}

double qmc_kernel_flops(i64 m, i64 mc) {
  // Triangular dot products dominate: mc * m^2 multiply-adds, plus ~60 flops
  // per entry for Phi / Phi^-1 evaluations.
  return static_cast<double>(mc) * static_cast<double>(m) *
             static_cast<double>(m) +
         60.0 * static_cast<double>(mc) * static_cast<double>(m);
}

}  // namespace parmvn::core
