// Tests for the parallel tile PMVN (Algorithm 2): equivalence with the
// sequential SOV oracle, dense/TLR agreement, determinism across thread
// counts and tile sizes, prefix-sweep semantics, and closed forms in
// moderate dimension.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/pmvn.hpp"
#include "core/sov.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "linalg/blas.hpp"
#include "linalg/potrf.hpp"
#include "stats/covariance.hpp"
#include "stats/normal.hpp"
#include "tile/tiled_potrf.hpp"
#include "tlr/tlr_potrf.hpp"

namespace {

using namespace parmvn;
using core::PmvnOptions;
using engine::QueryResult;
using la::Matrix;

constexpr double kInf = std::numeric_limits<double>::infinity();

Matrix equicorrelated(i64 n, double rho) {
  Matrix s(n, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < n; ++i) s(i, j) = (i == j) ? 1.0 : rho;
  return s;
}

// Tiled factor from a dense SPD matrix.
tile::TileMatrix tiled_chol(rt::Runtime& rt, const Matrix& sigma, i64 nb) {
  tile::TileMatrix l(rt, sigma.rows(), sigma.cols(), nb,
                     tile::Layout::kLowerSymmetric);
  l.from_dense(sigma.view());
  tile::potrf_tiled(rt, l);
  return l;
}

TEST(PmvnDense, MatchesSequentialOracleExactly) {
  // Same PointSet parameters => identical w values => the tile algorithm
  // computes the same chains as the sequential reference (up to FP
  // reassociation in the mean-update GEMMs).
  const i64 n = 60;
  Matrix sigma = equicorrelated(n, 0.45);
  std::vector<double> a(static_cast<std::size_t>(n), -0.4);
  std::vector<double> b(static_cast<std::size_t>(n), kInf);

  core::SovOptions seq;
  seq.samples_per_shift = 500;
  seq.shifts = 8;
  seq.sampler = stats::SamplerKind::kRichtmyer;
  seq.seed = 11;
  Matrix l_dense = la::to_matrix(sigma.view());
  la::potrf_lower_or_throw(l_dense.view());
  const core::SovResult expect =
      core::mvn_probability_chol(l_dense.view(), a, b, seq);

  rt::Runtime rt(4);
  const tile::TileMatrix l = tiled_chol(rt, sigma, 16);
  PmvnOptions opts;
  opts.samples_per_shift = 500;
  opts.shifts = 8;
  opts.sampler = stats::SamplerKind::kRichtmyer;
  opts.seed = 11;
  const QueryResult got = core::pmvn_dense(rt, l, a, b, opts);

  EXPECT_NEAR(got.prob / expect.prob, 1.0, 1e-8);
  EXPECT_NEAR(got.error3sigma, expect.error3sigma,
              1e-6 + 0.01 * expect.error3sigma);
}

TEST(PmvnDense, DeterministicAcrossThreadCounts) {
  const i64 n = 48;
  Matrix sigma = equicorrelated(n, 0.3);
  std::vector<double> a(static_cast<std::size_t>(n), -1.0);
  std::vector<double> b(static_cast<std::size_t>(n), 0.8);
  PmvnOptions opts;
  opts.samples_per_shift = 250;
  opts.shifts = 4;

  double reference = 0.0;
  for (int threads : {0, 1, 2, 8}) {
    rt::Runtime rt(threads);
    const tile::TileMatrix l = tiled_chol(rt, sigma, 16);
    const QueryResult r = core::pmvn_dense(rt, l, a, b, opts);
    if (threads == 0) {
      reference = r.prob;
    } else {
      EXPECT_EQ(r.prob, reference)
          << "task arithmetic must be schedule-independent, threads="
          << threads;
    }
  }
}

TEST(PmvnDense, TileSizeOnlyPerturbsRounding) {
  const i64 n = 72;
  Matrix sigma = equicorrelated(n, 0.5);
  std::vector<double> a(static_cast<std::size_t>(n), 0.0);
  std::vector<double> b(static_cast<std::size_t>(n), kInf);
  PmvnOptions opts;
  opts.samples_per_shift = 400;
  opts.shifts = 5;
  double first = -1.0;
  for (i64 nb : {8, 24, 36, 72}) {
    rt::Runtime rt(4);
    const tile::TileMatrix l = tiled_chol(rt, sigma, nb);
    const QueryResult r = core::pmvn_dense(rt, l, a, b, opts);
    if (first < 0) {
      first = r.prob;
    } else {
      EXPECT_NEAR(r.prob / first, 1.0, 1e-7) << "nb=" << nb;
    }
  }
}

TEST(PmvnDense, ExchangeableHalfCorrelationOrthantHighDim) {
  // 1/(n+1) identity at n = 64: a genuinely multivariate closed form.
  const i64 n = 64;
  Matrix sigma = equicorrelated(n, 0.5);
  std::vector<double> a(static_cast<std::size_t>(n), 0.0);
  std::vector<double> b(static_cast<std::size_t>(n), kInf);
  rt::Runtime rt(4);
  const tile::TileMatrix l = tiled_chol(rt, sigma, 32);
  PmvnOptions opts;
  opts.samples_per_shift = 2500;
  opts.shifts = 20;
  opts.sampler = stats::SamplerKind::kRichtmyer;
  const QueryResult r = core::pmvn_dense(rt, l, a, b, opts);
  const double expect = 1.0 / 65.0;
  EXPECT_NEAR(r.prob / expect, 1.0, 0.05);
  EXPECT_LT(std::fabs(r.prob - expect), 3.0 * r.error3sigma + 0.002 * expect);
}

TEST(PmvnDense, IndependenceProductExact) {
  const i64 n = 40;
  Matrix sigma(n, n);
  std::vector<double> a(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n));
  double expect = 1.0;
  for (i64 i = 0; i < n; ++i) {
    sigma(i, i) = 1.0;
    a[static_cast<std::size_t>(i)] = -0.8;
    b[static_cast<std::size_t>(i)] = 1.2;
    expect *= stats::norm_cdf_diff(-0.8, 1.2);
  }
  rt::Runtime rt(2);
  const tile::TileMatrix l = tiled_chol(rt, sigma, 16);
  const QueryResult r = core::pmvn_dense(rt, l, a, b, {});
  EXPECT_NEAR(r.prob / expect, 1.0, 1e-10)
      << "independent case is exact for every sample";
}

TEST(PmvnDense, PrefixSweepMatchesFullProbabilities) {
  const i64 n = 36;
  Matrix sigma = equicorrelated(n, 0.4);
  std::vector<double> a(static_cast<std::size_t>(n), -0.3);
  std::vector<double> b(static_cast<std::size_t>(n), kInf);
  rt::Runtime rt(4);
  const tile::TileMatrix l = tiled_chol(rt, sigma, 12);
  PmvnOptions opts;
  opts.samples_per_shift = 300;
  opts.shifts = 4;
  opts.prefix = true;
  const QueryResult r = core::pmvn_dense(rt, l, a, b, opts);
  ASSERT_EQ(static_cast<i64>(r.prefix_prob.size()), n);
  // Monotone non-increasing; last equals the total probability.
  for (std::size_t i = 1; i < r.prefix_prob.size(); ++i)
    EXPECT_LE(r.prefix_prob[i], r.prefix_prob[i - 1] + 1e-12);
  EXPECT_NEAR(r.prefix_prob.back(), r.prob, 1e-12);
  // First equals the exact marginal.
  EXPECT_NEAR(r.prefix_prob.front(), 1.0 - stats::norm_cdf(-0.3), 1e-12);

  // Prefix k must equal a separate PMVN run with limits only on the first k
  // coordinates (the remaining dimensions contribute an exact factor 1).
  for (i64 k : {i64{9}, i64{23}}) {
    std::vector<double> a_partial(static_cast<std::size_t>(n), -kInf);
    for (i64 i = 0; i < k; ++i) a_partial[static_cast<std::size_t>(i)] = -0.3;
    PmvnOptions full = opts;
    full.prefix = false;
    const QueryResult sub = core::pmvn_dense(rt, l, a_partial, b, full);
    EXPECT_NEAR(sub.prob, r.prefix_prob[static_cast<std::size_t>(k - 1)], 1e-12)
        << "k=" << k;
  }
}

TEST(PmvnDense, SmallPanelBytesStillExact) {
  // Force many column panels; panelling must not change the estimate at all.
  const i64 n = 30;
  Matrix sigma = equicorrelated(n, 0.25);
  std::vector<double> a(static_cast<std::size_t>(n), -0.5);
  std::vector<double> b(static_cast<std::size_t>(n), 2.0);
  rt::Runtime rt(2);
  const tile::TileMatrix l = tiled_chol(rt, sigma, 10);
  PmvnOptions big;
  big.samples_per_shift = 200;
  big.shifts = 5;
  PmvnOptions tiny = big;
  tiny.panel_bytes = 1;  // floor: one tile-column per panel
  const double p_big = core::pmvn_dense(rt, l, a, b, big).prob;
  const double p_tiny = core::pmvn_dense(rt, l, a, b, tiny).prob;
  EXPECT_EQ(p_big, p_tiny);
}

TEST(PmvnTlr, ConvergesToDenseAsToleranceTightens) {
  // Spatial covariance (Morton-ordered grid) so TLR compression is honest.
  geo::LocationSet locs = geo::regular_grid(14, 14);
  locs = geo::apply_permutation(locs, geo::morton_order(locs));
  auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.15);
  const geo::KernelCovGenerator gen(locs, kernel, 1e-6);
  const i64 n = gen.rows();
  std::vector<double> a(static_cast<std::size_t>(n), -0.25);
  std::vector<double> b(static_cast<std::size_t>(n), kInf);

  rt::Runtime rt(4);
  PmvnOptions opts;
  opts.samples_per_shift = 400;
  opts.shifts = 5;

  const Matrix sigma = geo::dense_from_generator(gen);
  tile::TileMatrix ld(rt, n, n, 49, tile::Layout::kLowerSymmetric);
  ld.from_dense(sigma.view());
  tile::potrf_tiled(rt, ld);
  const double p_dense = core::pmvn_dense(rt, ld, a, b, opts).prob;

  double prev_gap = 1.0;
  for (double tol : {1e-2, 1e-4, 1e-8}) {
    tlr::TlrMatrix lt = tlr::TlrMatrix::compress(rt, gen, 49, tol, -1);
    tlr::potrf_tlr(rt, lt);
    const double p_tlr = core::pmvn_tlr(rt, lt, a, b, opts).prob;
    const double gap = std::fabs(p_tlr - p_dense) / p_dense;
    EXPECT_LE(gap, prev_gap * 1.5 + 1e-9) << "tol=" << tol;
    prev_gap = gap;
    if (tol <= 1e-8) {
      EXPECT_LT(gap, 1e-5);
    }
  }
}

TEST(PmvnTlr, PrefixSweepWorksInTlrMode) {
  geo::LocationSet locs = geo::regular_grid(10, 10);
  locs = geo::apply_permutation(locs, geo::morton_order(locs));
  auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.2);
  const geo::KernelCovGenerator gen(locs, kernel, 1e-6);
  rt::Runtime rt(2);
  tlr::TlrMatrix l = tlr::TlrMatrix::compress(rt, gen, 25, 1e-6, -1);
  tlr::potrf_tlr(rt, l);
  std::vector<double> a(100, 0.0), b(100, kInf);
  PmvnOptions opts;
  opts.samples_per_shift = 250;
  opts.shifts = 4;
  opts.prefix = true;
  const QueryResult r = core::pmvn_tlr(rt, l, a, b, opts);
  ASSERT_EQ(r.prefix_prob.size(), 100u);
  for (std::size_t i = 1; i < 100; ++i)
    EXPECT_LE(r.prefix_prob[i], r.prefix_prob[i - 1] + 1e-12);
  EXPECT_NEAR(r.prefix_prob.back(), r.prob, 1e-12);
}

TEST(Pmvn, RejectsShapeMismatch) {
  rt::Runtime rt(1);
  Matrix sigma = equicorrelated(8, 0.2);
  const tile::TileMatrix l = tiled_chol(rt, sigma, 4);
  std::vector<double> short_a(4, 0.0), b(8, kInf);
  EXPECT_THROW((void)core::pmvn_dense(rt, l, short_a, b, {}), Error);
}

TEST(Pmvn, RejectsBadOptionsTyped) {
  // The wrapper hands its EngineOptions base to the engine, whose
  // constructor validates it: nonsense fails typed, before any sampling.
  rt::Runtime rt(1);
  const tile::TileMatrix l = tiled_chol(rt, equicorrelated(8, 0.2), 4);
  std::vector<double> a(8, 0.0), b(8, kInf);
  PmvnOptions bad;
  bad.ep_margin = -0.2;
  EXPECT_THROW((void)core::pmvn_dense(rt, l, a, b, bad), Error);
}

TEST(Pmvn, GeneralLayoutFactorRejected) {
  rt::Runtime rt(1);
  tile::TileMatrix not_sym(rt, 8, 8, 4, tile::Layout::kGeneral);
  std::vector<double> a(8, 0.0), b(8, 1.0);
  EXPECT_THROW((void)core::pmvn_dense(rt, not_sym, a, b, {}), Error);
}

}  // namespace
