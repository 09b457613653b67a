// Tests for the small-problem MVN probability (core::mvn_probability, the
// one-tile engine route) against closed forms: univariate, independence
// products, bivariate/trivariate orthant formulas, exchangeable-correlation
// identities, plus the reordering heuristic and the plain-MC baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "core/mvn_mc.hpp"
#include "core/sov.hpp"
#include "linalg/potrf.hpp"
#include "stats/normal.hpp"

namespace {

using namespace parmvn;
using engine::EngineOptions;
using engine::QueryResult;
using la::Matrix;

constexpr double kInf = std::numeric_limits<double>::infinity();

Matrix equicorrelated(i64 n, double rho) {
  Matrix s(n, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < n; ++i) s(i, j) = (i == j) ? 1.0 : rho;
  return s;
}

// Randomized Richtmyer QMC in `shifts` blocks of `samples` each.
EngineOptions richtmyer(i64 samples = 500, int shifts = 20) {
  EngineOptions opts;
  opts.samples_per_shift = samples;
  opts.shifts = shifts;
  opts.sampler = stats::SamplerKind::kRichtmyer;
  return opts;
}

TEST(SovSeq, UnivariateMatchesPhi) {
  Matrix s(1, 1);
  s(0, 0) = 4.0;  // sd = 2
  const std::vector<double> a{-1.0}, b{3.0};
  const QueryResult r = core::mvn_probability(s.view(), {a, b}, richtmyer());
  const double expect = stats::norm_cdf(1.5) - stats::norm_cdf(-0.5);
  EXPECT_NEAR(r.prob, expect, 1e-12);  // one dim: no MC error at all
}

TEST(SovSeq, IndependenceProduct) {
  const i64 n = 6;
  Matrix s(n, n);
  std::vector<double> a(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n));
  double expect = 1.0;
  for (i64 i = 0; i < n; ++i) {
    const double sd = 0.5 + 0.25 * static_cast<double>(i);
    s(i, i) = sd * sd;
    a[static_cast<std::size_t>(i)] = -1.0 - 0.1 * static_cast<double>(i);
    b[static_cast<std::size_t>(i)] = 0.5 + 0.2 * static_cast<double>(i);
    expect *= stats::norm_cdf_diff(a[static_cast<std::size_t>(i)] / sd,
                                   b[static_cast<std::size_t>(i)] / sd);
  }
  const QueryResult r = core::mvn_probability(s.view(), {a, b}, richtmyer());
  EXPECT_NEAR(r.prob, expect, 1e-12)
      << "diagonal covariance: the SOV estimator is exact per sample";
}

class BivariateOrthant : public ::testing::TestWithParam<double> {};

TEST_P(BivariateOrthant, MatchesArcsineFormula) {
  const double rho = GetParam();
  Matrix s = equicorrelated(2, rho);
  const std::vector<double> a{0.0, 0.0}, b{kInf, kInf};
  const QueryResult r =
      core::mvn_probability(s.view(), {a, b}, richtmyer(2000, 25));
  const double expect = 0.25 + std::asin(rho) / (2.0 * M_PI);
  EXPECT_NEAR(r.prob, expect, 5e-4) << "rho=" << rho;
  EXPECT_NEAR(r.prob, expect, std::max(2.0 * r.error3sigma, 1e-5))
      << "error estimate should cover the truth, rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(RhoGrid, BivariateOrthant,
                         ::testing::Values(-0.9, -0.5, -0.1, 0.0, 0.3, 0.7,
                                           0.95));

TEST(SovSeq, TrivariateOrthantFormula) {
  // P(X>0 for all) = 1/8 + (asin r12 + asin r13 + asin r23)/(4 pi).
  Matrix s(3, 3);
  const double r12 = 0.5, r13 = 0.25, r23 = -0.3;
  s(0, 0) = s(1, 1) = s(2, 2) = 1.0;
  s(0, 1) = s(1, 0) = r12;
  s(0, 2) = s(2, 0) = r13;
  s(1, 2) = s(2, 1) = r23;
  const std::vector<double> a{0.0, 0.0, 0.0}, b{kInf, kInf, kInf};
  const QueryResult r =
      core::mvn_probability(s.view(), {a, b}, richtmyer(2000, 25));
  const double expect =
      0.125 + (std::asin(r12) + std::asin(r13) + std::asin(r23)) / (4.0 * M_PI);
  EXPECT_NEAR(r.prob, expect, 5e-4);
}

TEST(SovSeq, ExchangeableHalfCorrelationOrthant) {
  // Classic identity: for rho = 1/2, P(X_i > 0 for all i) = 1/(n+1).
  for (i64 n : {4, 8, 16}) {
    Matrix s = equicorrelated(n, 0.5);
    std::vector<double> a(static_cast<std::size_t>(n), 0.0);
    std::vector<double> b(static_cast<std::size_t>(n), kInf);
    const QueryResult r =
        core::mvn_probability(s.view(), {a, b}, richtmyer(2000, 25));
    const double expect = 1.0 / static_cast<double>(n + 1);
    EXPECT_NEAR(r.prob / expect, 1.0, 0.02) << "n=" << n;
  }
}

TEST(SovSeq, DegenerateAndFullBoxes) {
  Matrix s = equicorrelated(4, 0.3);
  const std::vector<double> all_inf_a(4, -kInf), all_inf_b(4, kInf);
  EXPECT_DOUBLE_EQ(
      core::mvn_probability(s.view(), {all_inf_a, all_inf_b}, richtmyer())
          .prob,
      1.0);
  std::vector<double> a(4, 0.5), b(4, 0.5);  // zero-width box
  EXPECT_DOUBLE_EQ(core::mvn_probability(s.view(), {a, b}, richtmyer()).prob,
                   0.0);
  std::vector<double> a2(4, 1.0), b2(4, -1.0);  // inverted box
  EXPECT_DOUBLE_EQ(
      core::mvn_probability(s.view(), {a2, b2}, richtmyer()).prob, 0.0);
}

TEST(SovSeq, QmcBeatsMcAtEqualBudget) {
  // Same total samples; Richtmyer should land closer to the truth than the
  // plain pseudo-MC R matrix on a smooth 8-d problem.
  Matrix s = equicorrelated(8, 0.5);
  std::vector<double> a(8, 0.0), b(8, kInf);
  const double expect = 1.0 / 9.0;
  const EngineOptions qmc = richtmyer(1000, 10);
  EngineOptions mc = qmc;
  mc.sampler = stats::SamplerKind::kPseudoMC;
  const double err_qmc =
      std::fabs(core::mvn_probability(s.view(), {a, b}, qmc).prob - expect);
  const double err_mc =
      std::fabs(core::mvn_probability(s.view(), {a, b}, mc).prob - expect);
  EXPECT_LT(err_qmc, err_mc);
}

TEST(SovSeq, PrefixProbabilitiesMonotoneAndConsistent) {
  Matrix s = equicorrelated(12, 0.4);
  std::vector<double> a(12, -0.2), b(12, kInf);
  const EngineOptions opts = richtmyer(1000, 10);
  const std::vector<double> prefix =
      core::mvn_probability(s.view(), {a, b, 42, /*prefix=*/true}, opts)
          .prefix_prob;
  ASSERT_EQ(prefix.size(), 12u);
  // First prefix = marginal of the first variable (exact).
  EXPECT_NEAR(prefix[0], 1.0 - stats::norm_cdf(-0.2), 1e-12);
  for (std::size_t i = 1; i < prefix.size(); ++i)
    EXPECT_LE(prefix[i], prefix[i - 1] + 1e-12);
  // Last prefix equals the full probability (same sampler/seed).
  const QueryResult full = core::mvn_probability(s.view(), {a, b}, opts);
  EXPECT_NEAR(prefix.back(), full.prob, 1e-12);
}

// sigma with rows/columns permuted: out(i, j) = sigma(perm[i], perm[j]).
Matrix permuted(const Matrix& sigma, const std::vector<i64>& perm) {
  const i64 n = sigma.rows();
  Matrix out(n, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < n; ++i)
      out(i, j) = sigma(perm[static_cast<std::size_t>(i)],
                        perm[static_cast<std::size_t>(j)]);
  return out;
}

TEST(GenzReorder, PermutationValidAndProbabilityInvariant) {
  Matrix s(5, 5);
  // A structured SPD matrix with distinct scales.
  for (i64 i = 0; i < 5; ++i)
    for (i64 j = 0; j < 5; ++j)
      s(i, j) = (i == j) ? 2.0 + 0.3 * static_cast<double>(i)
                         : 0.6 * std::exp(-0.4 * std::fabs(
                                              static_cast<double>(i - j)));
  std::vector<double> a{-0.3, -2.0, 0.1, -1.0, -0.5};
  std::vector<double> b{1.0, 0.5, 2.0, kInf, 0.9};

  const EngineOptions opts = richtmyer(4000, 20);
  const double before = core::mvn_probability(s.view(), {a, b}, opts).prob;

  Matrix s2 = la::to_matrix(s.view());
  std::vector<double> a2 = a, b2 = b;
  const std::vector<i64> perm = core::genz_reorder(s2.view(), a2, b2);

  std::vector<i64> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (i64 i = 0; i < 5; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  for (i64 i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(a2[static_cast<std::size_t>(i)],
                     a[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])]);
  }

  // genz_reorder leaves the Cholesky factor of the permuted matrix in the
  // lower triangle.
  const Matrix sp = permuted(s, perm);
  Matrix lp = la::to_matrix(sp.view());
  la::potrf_lower_or_throw(lp.view());
  for (i64 j = 0; j < 5; ++j)
    for (i64 i = j; i < 5; ++i)
      EXPECT_NEAR(s2(i, j), lp(i, j), 1e-12) << "L(" << i << "," << j << ")";

  const QueryResult after = core::mvn_probability(sp.view(), {a2, b2}, opts);
  EXPECT_NEAR(after.prob / before, 1.0, 0.03);
}

TEST(GenzReorder, StandardisesCandidatesByConditionalVariance) {
  // Variables 0 and 1 are strongly correlated, 2 is independent. Step 0
  // takes variable 1 (mass 0.223). Given it, variable 0's conditional
  // variance is 1 - 0.95^2 = 0.0975 and its conditional mass 0.969, so
  // variable 2 (mass 0.726) is the harder constraint and goes next (Genz &
  // Bretz 2009, Sec. 4.1.3). Standardising by the raw variance 1 instead
  // reads variable 0's mass as 0.719 and picks it.
  Matrix s(3, 3);
  s(0, 0) = s(1, 1) = s(2, 2) = 1.0;
  s(0, 1) = s(1, 0) = 0.95;
  std::vector<double> a{-kInf, -1.0, -0.6}, b{0.0, -0.3, kInf};
  const std::vector<i64> perm = core::genz_reorder(s.view(), a, b);
  EXPECT_EQ(perm, (std::vector<i64>{1, 2, 0}));
}

TEST(MvnMc, AgreesWithSovOnModerateProblem) {
  Matrix s = equicorrelated(6, 0.3);
  std::vector<double> a(6, -1.0), b(6, 1.5);
  Matrix l = la::to_matrix(s.view());
  la::potrf_lower_or_throw(l.view());
  const core::MvnMcResult mc =
      core::mvn_probability_mc(l.view(), a, b, 200000, 17);
  const QueryResult sov =
      core::mvn_probability(s.view(), {a, b}, richtmyer(2000, 20));
  EXPECT_NEAR(mc.prob, sov.prob, mc.error3sigma + sov.error3sigma);
  EXPECT_GT(mc.error3sigma, 0.0);
}

TEST(MvnMc, FullBoxIsOne) {
  Matrix l = Matrix::identity(3);
  std::vector<double> a(3, -kInf), b(3, kInf);
  EXPECT_DOUBLE_EQ(core::mvn_probability_mc(l.view(), a, b, 100, 1).prob, 1.0);
}

TEST(SovSeq, NanLimitThrowsNamingTheCoordinate) {
  // Phi(b) - Phi(a) is 0 for a NaN limit: every estimator must refuse it
  // instead of returning a confident probability 0.
  const Matrix s = equicorrelated(4, 0.3);
  Matrix l = la::to_matrix(s.view());
  la::potrf_lower_or_throw(l.view());
  const auto expect_named = [](const auto& call, const std::string& coord) {
    try {
      call();
      ADD_FAILURE() << "no error for NaN " << coord;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(coord), std::string::npos)
          << e.what();
    }
  };
  for (const bool in_a : {true, false}) {
    std::vector<double> a(4, -1.0), b(4, 1.5);
    (in_a ? a : b)[2] = std::numeric_limits<double>::quiet_NaN();
    const std::string coord = in_a ? "a[2]" : "b[2]";
    for (const bool prefix : {false, true}) {
      expect_named(
          [&] {
            (void)core::mvn_probability(s.view(), {a, b, 42, prefix},
                                        richtmyer(50, 4));
          },
          coord);
    }
    expect_named(
        [&] { (void)core::mvn_probability_mc(l.view(), a, b, 100, 1); },
        coord);
  }
}

}  // namespace
