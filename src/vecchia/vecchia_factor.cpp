#include "vecchia/vecchia_factor.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "linalg/matrix.hpp"

namespace parmvn::vecchia {

namespace {

// Sites per fitting task: each site is a grid-ring neighbour search plus an
// O(m^3) solve on an (<= m)-dim local system, so a chunk amortises task
// overhead without starving parallelism.
constexpr i64 kFitChunk = 512;

// Regression weights and conditional sd of site i given its conditioning
// set: one local Cholesky solve, entirely in stack/thread-local storage.
// Deterministic: plain ascending-index loops, no reduction reassociation.
void fit_site(const la::MatrixGenerator& gen, i64 i, std::span<const i64> nb,
              la::MatrixView c, double* z, double* w_out, double* d_out) {
  const i64 k = static_cast<i64>(nb.size());
  const double kii = gen.entry(i, i);
  if (k == 0) {
    PARMVN_EXPECTS(kii > 0.0);
    *d_out = std::sqrt(kii);
    return;
  }
  for (i64 q = 0; q < k; ++q)
    for (i64 p = q; p < k; ++p)
      c(p, q) = gen.entry(nb[static_cast<std::size_t>(p)],
                          nb[static_cast<std::size_t>(q)]);
  // In-place lower Cholesky of the k x k local covariance.
  for (i64 q = 0; q < k; ++q) {
    double diag = c(q, q);
    for (i64 t = 0; t < q; ++t) diag -= c(q, t) * c(q, t);
    if (!(diag > 0.0))
      throw Error("VecchiaFactor: conditioning set covariance not SPD at site " +
                  std::to_string(i));
    const double l = std::sqrt(diag);
    c(q, q) = l;
    for (i64 p = q + 1; p < k; ++p) {
      double s = c(p, q);
      for (i64 t = 0; t < q; ++t) s -= c(p, t) * c(q, t);
      c(p, q) = s / l;
    }
  }
  // Forward substitution L z = k_ci.
  for (i64 p = 0; p < k; ++p) {
    double s = gen.entry(nb[static_cast<std::size_t>(p)], i);
    for (i64 t = 0; t < p; ++t) s -= c(p, t) * z[t];
    z[p] = s / c(p, p);
  }
  double d2 = kii;
  for (i64 p = 0; p < k; ++p) d2 -= z[p] * z[p];
  if (!(d2 > 0.0))
    throw Error(
        "VecchiaFactor: non-positive conditional variance at site " +
        std::to_string(i) + " (increase the nugget or reduce vecchia_m)");
  *d_out = std::sqrt(d2);
  // Back substitution L^T w = z.
  for (i64 p = k - 1; p >= 0; --p) {
    double s = z[p];
    for (i64 t = p + 1; t < k; ++t) s -= c(t, p) * w_out[t];
    w_out[p] = s / c(p, p);
  }
}

}  // namespace

VecchiaFactor VecchiaFactor::build(rt::Runtime& rt,
                                   const la::MatrixGenerator& gen,
                                   std::span<const double> xy, i64 tile,
                                   i64 m) {
  const i64 n = gen.rows();
  PARMVN_EXPECTS(gen.cols() == n);
  PARMVN_EXPECTS(static_cast<i64>(xy.size()) == 2 * n);
  PARMVN_EXPECTS(tile >= 1);
  PARMVN_EXPECTS(m >= 1);

  VecchiaFactor f;
  const WallTimer timer;
  f.n_ = n;
  f.tile_ = tile;
  f.mt_ = (n + tile - 1) / tile;
  f.m_ = m;
  const PredecessorIndex index(xy);
  f.sets_.offsets = predecessor_offsets(n, m);
  f.sets_.neighbors.resize(static_cast<std::size_t>(f.sets_.offsets.back()));
  f.w_.assign(f.sets_.neighbors.size(), 0.0);
  f.d_.assign(static_cast<std::size_t>(n), 0.0);

  // Per-site neighbour search and local solve, chunked into independent
  // tasks (each writes its own CSR slots, so no declared accesses are
  // needed).
  const PredecessorIndex* idx = &index;
  const i64* offsets = f.sets_.offsets.data();
  i64* neighbors = f.sets_.neighbors.data();
  const la::MatrixGenerator* g = &gen;
  double* weights = f.w_.data();
  double* sds = f.d_.data();
  for (i64 lo = 0; lo < n; lo += kFitChunk) {
    const i64 hi = std::min(n, lo + kFitChunk);
    rt.submit("vecchia_fit", {},
              [idx, offsets, neighbors, g, weights, sds, lo, hi, m] {
                PARMVN_FAULT_POINT("vecchia.fit");
                la::Matrix c(m, m);
                std::vector<double> z(static_cast<std::size_t>(m), 0.0);
                for (i64 i = lo; i < hi; ++i) {
                  const i64 off = offsets[i];
                  i64* nb = neighbors + off;
                  idx->nearest(i, m, nb);
                  fit_site(*g, i,
                           {nb, static_cast<std::size_t>(offsets[i + 1] - off)},
                           c.view(), z.data(), weights + off, sds + i);
                }
              });
  }
  rt.wait_all();

  f.build_seconds_ = timer.seconds();
  return f;
}

}  // namespace parmvn::vecchia
