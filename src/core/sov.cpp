#include "core/sov.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/contracts.hpp"
#include "linalg/generator.hpp"
#include "stats/normal.hpp"

namespace parmvn::core {

namespace {

constexpr double kUEps = 1e-16;  // keeps Phi^-1 arguments inside (0,1)

}  // namespace

engine::QueryResult mvn_probability(la::ConstMatrixView sigma,
                                    const engine::LimitSet& limits,
                                    const engine::EngineOptions& opts) {
  rt::Runtime rt(0);
  const la::DenseGenerator gen(la::to_matrix(sigma));
  const engine::FactorSpec spec{engine::FactorKind::kDense, sigma.rows};
  const engine::PmvnEngine eng(
      rt,
      std::make_shared<const engine::CholeskyFactor>(
          engine::CholeskyFactor::factor(rt, gen, spec)),
      opts);
  return eng.evaluate_one(limits);
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
  // conditional probability Phi(b') - Phi(a') is smallest, swap it into
  // position i, and take one step of outer-product Cholesky so subsequent
  // choices condition on it (Genz & Bretz 2009, Sec. 4.1.3, expectation
  // approximated by the midpoint y = Phi^-1((Phi(a')+Phi(b'))/2)). The
  // limits of candidate j are standardised by its conditional variance
  // sigma_jj - sum_{k<i} L_jk^2 (the L_jk sit in sigma(j, k) for k < i).
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (i64 i = 0; i < n; ++i) {
    i64 best = -1;
    double best_mass = 2.0;
    for (i64 j = i; j < n; ++j) {
      double dotv = 0.0;
      double denom_sq = sigma(j, j);
      for (i64 k = 0; k < i; ++k) {
        dotv += sigma(j, k) * y[static_cast<std::size_t>(k)];
        denom_sq -= sigma(j, k) * sigma(j, k);
      }
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
