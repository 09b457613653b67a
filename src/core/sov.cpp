#include "core/sov.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "core/qmc_kernel.hpp"
#include "linalg/blas.hpp"
#include "linalg/potrf.hpp"
#include "stats/normal.hpp"

namespace parmvn::core {

namespace {

constexpr double kUEps = 1e-16;  // keeps Phi^-1 arguments inside (0,1)

// Samples per panel of the sample-contiguous sweep: wide enough to fill the
// batched Phi/Phi^-1 lanes, small enough that the two (panel x n) buffers
// stay cache-friendly at typical n.
constexpr i64 kPanelSamples = 128;

// Shape and NaN check of an estimator's inputs.
void check_limits(const char* who, la::ConstMatrixView l,
                  std::span<const double> a, std::span<const double> b) {
  const i64 n = l.rows;
  PARMVN_EXPECTS(l.cols == n);
  PARMVN_EXPECTS(static_cast<i64>(a.size()) == n);
  PARMVN_EXPECTS(static_cast<i64>(b.size()) == n);
  expect_no_nan_limits(who, a, b);
}

// The sample-contiguous panel sweep of the sequential estimators: runs the
// QMC tile kernel over panels of samples against the whole factor (one
// "tile" of size n, so its mean panel has no earlier tile row to hold and
// stays zero), handing each finished panel's per-sample probability
// products to `consume(s0, pc, p)` in ascending sample order. Panelling is
// exact — per-sample values are independent of the chunk boundaries.
// `prefix_acc` is an optional length-n prefix accumulator (see
// qmc_tile_kernel).
template <class Consume>
void sov_panel_sweep(la::ConstMatrixView l, std::span<const double> a,
                     std::span<const double> b, const stats::PointSet& pts,
                     double* prefix_acc, Consume&& consume) {
  const i64 n = l.rows;
  const i64 count = pts.num_samples();
  const i64 chunk = std::min<i64>(kPanelSamples, count);
  const la::Matrix mean(chunk, n);
  la::Matrix yp(chunk, n);
  std::vector<double> p(static_cast<std::size_t>(chunk));
  for (i64 s0 = 0; s0 < count; s0 += chunk) {
    const i64 pc = std::min(chunk, count - s0);
    std::fill_n(p.data(), pc, 1.0);
    qmc_tile_kernel(l, pts, /*row0=*/0, s0, a, b, mean.sub(0, 0, pc, n),
                    yp.view().sub(0, 0, pc, n), p.data(), prefix_acc);
    consume(s0, pc, p.data());
  }
}

}  // namespace

SovResult mvn_probability_chol(la::ConstMatrixView l, std::span<const double> a,
                               std::span<const double> b,
                               const SovOptions& opts) {
  check_limits("mvn_probability", l, a, b);
  const stats::PointSet pts(opts.sampler, l.rows, opts.samples_per_shift,
                            opts.shifts, opts.seed);
  std::vector<double> means(static_cast<std::size_t>(opts.shifts), 0.0);
  sov_panel_sweep(l, a, b, pts, nullptr, [&](i64 s0, i64 pc, const double* p) {
    for (i64 j = 0; j < pc; ++j)
      means[static_cast<std::size_t>(pts.shift_of(s0 + j))] += p[j];
  });
  for (double& m : means) m /= static_cast<double>(opts.samples_per_shift);
  const stats::BlockEstimate est = stats::combine_block_means(means);
  return {est.mean, est.error3sigma};
}

SovResult mvn_probability(la::ConstMatrixView sigma, std::span<const double> a,
                          std::span<const double> b, const SovOptions& opts) {
  la::Matrix l = la::to_matrix(sigma);
  la::potrf_lower_or_throw(l.view());
  return mvn_probability_chol(l.view(), a, b, opts);
}

std::vector<double> mvn_prefix_probabilities_chol(la::ConstMatrixView l,
                                                  std::span<const double> a,
                                                  std::span<const double> b,
                                                  const SovOptions& opts) {
  check_limits("mvn_prefix_probabilities", l, a, b);
  const stats::PointSet pts(opts.sampler, l.rows, opts.samples_per_shift,
                            opts.shifts, opts.seed);
  std::vector<double> acc(static_cast<std::size_t>(l.rows), 0.0);
  sov_panel_sweep(l, a, b, pts, acc.data(), [](i64, i64, const double*) {});
  const double inv = 1.0 / static_cast<double>(pts.num_samples());
  for (double& v : acc) v *= inv;
  return acc;
}

std::vector<i64> genz_reorder(la::MatrixView sigma, std::span<double> a,
                              std::span<double> b) {
  const i64 n = sigma.rows;
  PARMVN_EXPECTS(sigma.cols == n);
  PARMVN_EXPECTS(static_cast<i64>(a.size()) == n &&
                 static_cast<i64>(b.size()) == n);

  std::vector<i64> perm(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;

  // Greedy: at step i, among remaining variables pick the one whose
  // (conditional) probability Phi(b') - Phi(a') is smallest, swap it into
  // position i, and take one step of outer-product Cholesky so subsequent
  // choices condition on it (Genz & Bretz 2009, Sec. 4.1.3, expectation
  // approximated by the midpoint y = Phi^-1((Phi(a')+Phi(b'))/2)).
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (i64 i = 0; i < n; ++i) {
    i64 best = -1;
    double best_mass = 2.0;
    for (i64 j = i; j < n; ++j) {
      double dotv = 0.0;
      for (i64 k = 0; k < i; ++k) dotv += sigma(j, k) * y[static_cast<std::size_t>(k)];
      const double denom_sq = sigma(j, j);
      if (denom_sq <= 0.0) continue;
      const double denom = std::sqrt(denom_sq);
      const double aj = (a[static_cast<std::size_t>(j)] - dotv) / denom;
      const double bj = (b[static_cast<std::size_t>(j)] - dotv) / denom;
      const double mass = stats::norm_cdf_diff(aj, bj);
      if (mass < best_mass) {
        best_mass = mass;
        best = j;
      }
    }
    if (best < 0) best = i;
    if (best != i) {
      // Swap variable `best` into position i: rows/cols of sigma, limits,
      // permutation record.
      for (i64 k = 0; k < n; ++k) std::swap(sigma(i, k), sigma(best, k));
      for (i64 k = 0; k < n; ++k) std::swap(sigma(k, i), sigma(k, best));
      std::swap(a[static_cast<std::size_t>(i)], a[static_cast<std::size_t>(best)]);
      std::swap(b[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(best)]);
      std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(best)]);
    }

    // One outer-product Cholesky step on column i (writes L into the lower
    // triangle of sigma).
    double diag = sigma(i, i);
    for (i64 k = 0; k < i; ++k) diag -= sigma(i, k) * sigma(i, k);
    PARMVN_EXPECTS(diag > 0.0);
    const double lii = std::sqrt(diag);
    sigma(i, i) = lii;
    for (i64 j = i + 1; j < n; ++j) {
      double v = sigma(j, i);
      for (i64 k = 0; k < i; ++k) v -= sigma(j, k) * sigma(i, k);
      sigma(j, i) = v / lii;
    }
    // Midpoint y for conditioning subsequent choices.
    double dotv = 0.0;
    for (i64 k = 0; k < i; ++k) dotv += sigma(i, k) * y[static_cast<std::size_t>(k)];
    const double ai = (a[static_cast<std::size_t>(i)] - dotv) / lii;
    const double bi = (b[static_cast<std::size_t>(i)] - dotv) / lii;
    const double mid =
        std::clamp(0.5 * (stats::norm_cdf(ai) + stats::norm_cdf(bi)), kUEps,
                   1.0 - kUEps);
    y[static_cast<std::size_t>(i)] = stats::norm_quantile(mid);
  }
  return perm;
}

}  // namespace parmvn::core
