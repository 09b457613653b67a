// Tests for the Vecchia factor arm: orderings and conditioning sets
// (against brute force), the per-site regression solves (against the normal
// equations), exactness at m = n-1 (the factor then IS the full Cholesky,
// so the PMVN estimate matches the dense arm to rounding), cross-tile
// conditioning, statistical agreement at small m, and the kVecchia
// confidence-region mode. Cross-arm comparisons use tolerances — the
// Vecchia estimand is only exact at m = n-1 — while within-arm contracts
// (tile-size robustness, coords plumbing) are tight.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "core/excursion.hpp"
#include "core/pmvn.hpp"
#include "engine/cholesky_factor.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "linalg/matrix.hpp"
#include "stats/covariance.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tiled_potrf.hpp"
#include "vecchia/ordering.hpp"
#include "vecchia/vecchia_factor.hpp"

namespace {

using namespace parmvn;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Deterministic scattered points (LCG, no libc rand) as flat (x, y) pairs.
std::vector<double> scatter_xy(i64 n, u64 seed) {
  std::vector<double> xy(static_cast<std::size_t>(2 * n));
  u64 s = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (double& v : xy) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<double>(s >> 11) / 9007199254740992.0;  // [0, 1)
  }
  return xy;
}

double dist2(std::span<const double> xy, i64 i, i64 j) {
  const double dx = xy[static_cast<std::size_t>(2 * i)] -
                    xy[static_cast<std::size_t>(2 * j)];
  const double dy = xy[static_cast<std::size_t>(2 * i + 1)] -
                    xy[static_cast<std::size_t>(2 * j + 1)];
  return dx * dx + dy * dy;
}

std::vector<double> grid_xy(const geo::LocationSet& locs) {
  std::vector<double> xy;
  xy.reserve(2 * locs.size());
  for (const geo::Point& p : locs) {
    xy.push_back(p.x);
    xy.push_back(p.y);
  }
  return xy;
}

TEST(VecchiaOrdering, MaxminIsAPermutationAndGreedyOptimal) {
  const i64 n = 40;
  const std::vector<double> xy = scatter_xy(n, 7);
  const std::vector<i64> order = vecchia::maxmin_order(xy);
  ASSERT_EQ(static_cast<i64>(order.size()), n);
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (const i64 i : order) {
    ASSERT_GE(i, 0);
    ASSERT_LT(i, n);
    EXPECT_FALSE(seen[static_cast<std::size_t>(i)]) << "duplicate " << i;
    seen[static_cast<std::size_t>(i)] = 1;
  }
  // Greedy optimality (n below the exact cutoff): the point picked at step
  // k attains the maximum over remaining points of the min distance to the
  // already-picked set. Value equality, so any tie-break is acceptable.
  for (std::size_t k = 1; k < order.size(); ++k) {
    const auto min_to_picked = [&](i64 i) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < k; ++j)
        best = std::min(best, dist2(xy, i, order[j]));
      return best;
    };
    const double picked = min_to_picked(order[k]);
    for (std::size_t r = k; r < order.size(); ++r)
      EXPECT_LE(min_to_picked(order[r]), picked)
          << "step " << k << " did not pick a maxmin point";
  }
  // Determinism.
  EXPECT_EQ(vecchia::maxmin_order(xy), order);
}

TEST(VecchiaOrdering, MaxminGridLevelsCoverLargeInputs) {
  // Above the exact cutoff the coarse-to-fine path must still emit a
  // permutation whose early points are spread across the domain.
  const i64 n = 5000;
  const std::vector<double> xy = scatter_xy(n, 3);
  const std::vector<i64> order = vecchia::maxmin_order(xy);
  ASSERT_EQ(static_cast<i64>(order.size()), n);
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (const i64 i : order) {
    ASSERT_GE(i, 0);
    ASSERT_LT(i, n);
    ASSERT_FALSE(seen[static_cast<std::size_t>(i)]);
    seen[static_cast<std::size_t>(i)] = 1;
  }
  // The first 16 picks must be mutually farther apart than typical
  // neighbouring points (~1/sqrt(n) spacing): coarse levels first.
  double min_d2 = std::numeric_limits<double>::infinity();
  for (int a = 0; a < 16; ++a)
    for (int b = a + 1; b < 16; ++b)
      min_d2 = std::min(min_d2, dist2(xy, order[a], order[b]));
  EXPECT_GT(std::sqrt(min_d2), 4.0 / std::sqrt(static_cast<double>(n)));
}

TEST(VecchiaOrdering, NearestPredecessorsMatchBruteForce) {
  const i64 n = 300;
  const i64 m = 6;
  const std::vector<double> xy = scatter_xy(n, 11);
  const vecchia::ConditioningSets sets = vecchia::nearest_predecessors(xy, m);
  ASSERT_EQ(sets.offsets.size(), static_cast<std::size_t>(n + 1));
  for (i64 i = 0; i < n; ++i) {
    // Brute force: all predecessors by (dist2, index), keep the first m.
    std::vector<std::pair<double, i64>> cand;
    for (i64 j = 0; j < i; ++j) cand.push_back({dist2(xy, i, j), j});
    std::sort(cand.begin(), cand.end());
    cand.resize(static_cast<std::size_t>(std::min(i, m)));
    std::vector<i64> expect;
    for (const auto& [d, j] : cand) expect.push_back(j);
    std::sort(expect.begin(), expect.end());

    const std::span<const i64> got = sets.of(i);
    ASSERT_EQ(got.size(), expect.size()) << "site " << i;
    for (std::size_t k = 0; k < expect.size(); ++k)
      EXPECT_EQ(got[k], expect[k]) << "site " << i << " slot " << k;
  }
}

TEST(VecchiaFactor, SolvesMatchNormalEquations) {
  // w_i = K_cc^{-1} k_ci and d_i^2 = k_ii - k_ci^T w_i, verified through
  // the residual of the normal equations entry by entry.
  const geo::LocationSet locs = geo::regular_grid(5, 5);
  const auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.3);
  const geo::KernelCovGenerator gen(locs, kernel, 1e-6);
  const std::vector<double> xy = grid_xy(locs);
  rt::Runtime rt(2);
  const vecchia::VecchiaFactor f =
      vecchia::VecchiaFactor::build(rt, gen, xy, /*tile=*/8, /*m=*/4);
  EXPECT_EQ(f.dim(), 25);
  EXPECT_GT(f.build_seconds(), 0.0);

  const vecchia::ConditioningSets& sets = f.sets();
  std::span<const double> w = f.weights();
  std::span<const double> d = f.cond_sd();
  for (i64 i = 0; i < f.dim(); ++i) {
    const std::span<const i64> c = sets.of(i);
    const std::size_t off = static_cast<std::size_t>(
        sets.offsets[static_cast<std::size_t>(i)]);
    // Residual of K_cc w = k_ci.
    for (std::size_t r = 0; r < c.size(); ++r) {
      double lhs = 0.0;
      for (std::size_t s = 0; s < c.size(); ++s)
        lhs += gen.entry(c[r], c[s]) * w[off + s];
      EXPECT_NEAR(lhs, gen.entry(c[r], i), 1e-10) << "site " << i;
    }
    double quad = 0.0;
    for (std::size_t s = 0; s < c.size(); ++s)
      quad += gen.entry(i, c[s]) * w[off + s];
    const double di = d[static_cast<std::size_t>(i)];
    EXPECT_NEAR(di * di, gen.entry(i, i) - quad, 1e-10) << "site " << i;
    EXPECT_GT(di, 0.0);
  }
}

struct VecchiaProblem {
  geo::LocationSet locs;
  std::shared_ptr<stats::ExponentialKernel> kernel;
  std::shared_ptr<geo::KernelCovGenerator> cov;
  std::vector<double> xy, a, b;

  explicit VecchiaProblem(i64 side, double lo = -0.6)
      : locs(geo::apply_permutation(
            geo::regular_grid(side, side),
            geo::morton_order(geo::regular_grid(side, side)))),
        kernel(std::make_shared<stats::ExponentialKernel>(1.0, 0.2)),
        cov(std::make_shared<geo::KernelCovGenerator>(locs, kernel, 1e-6)),
        xy(grid_xy(locs)),
        a(locs.size(), lo),
        b(locs.size(), kInf) {}
};

core::PmvnOptions qmc_opts() {
  core::PmvnOptions o;
  o.samples_per_shift = 300;
  o.shifts = 5;
  o.sampler = stats::SamplerKind::kRichtmyer;
  o.seed = 20240517;
  return o;
}

double dense_prob(rt::Runtime& rt, const VecchiaProblem& pb,
                  const core::PmvnOptions& opts, double* err = nullptr) {
  const la::Matrix sigma = geo::dense_from_generator(*pb.cov);
  tile::TileMatrix l(rt, sigma.rows(), sigma.cols(), 16,
                     tile::Layout::kLowerSymmetric);
  l.from_dense(sigma.view());
  tile::potrf_tiled(rt, l);
  const engine::QueryResult r = core::pmvn_dense(rt, l, pb.a, pb.b, opts);
  if (err != nullptr) *err = r.error3sigma;
  return r.prob;
}

TEST(VecchiaPmvn, FullConditioningMatchesDenseArm) {
  // m = n-1: every site conditions on all predecessors, so the Vecchia
  // factor is the exact sequential factorization and the sweep consumes the
  // same per-sample uniforms — agreement to rounding, not statistics.
  const VecchiaProblem pb(6);
  const i64 n = pb.cov->rows();
  rt::Runtime rt(4);
  const core::PmvnOptions opts = qmc_opts();
  const double pd = dense_prob(rt, pb, opts);

  const vecchia::VecchiaFactor f =
      vecchia::VecchiaFactor::build(rt, *pb.cov, pb.xy, /*tile=*/16, n - 1);
  const double pv = core::pmvn_vecchia(rt, f, pb.a, pb.b, opts).prob;
  EXPECT_NEAR(pv, pd, 1e-8 * std::max(1.0, std::abs(pd)));
}

TEST(VecchiaPmvn, CrossTileConditioningIsTileSizeRobust) {
  // tile = n keeps every weight in-tile (pure gemv path); a small tile
  // forces most weights through the cross-tile mean-panel axpys. Both must
  // produce the same estimate up to summation-order rounding.
  const VecchiaProblem pb(6);
  rt::Runtime rt(4);
  const core::PmvnOptions opts = qmc_opts();
  const i64 n = pb.cov->rows();
  const vecchia::VecchiaFactor f_one =
      vecchia::VecchiaFactor::build(rt, *pb.cov, pb.xy, n, /*m=*/10);
  const vecchia::VecchiaFactor f_tiled =
      vecchia::VecchiaFactor::build(rt, *pb.cov, pb.xy, /*tile=*/7, /*m=*/10);
  const double p_one = core::pmvn_vecchia(rt, f_one, pb.a, pb.b, opts).prob;
  const double p_tiled = core::pmvn_vecchia(rt, f_tiled, pb.a, pb.b, opts).prob;
  EXPECT_NEAR(p_tiled, p_one, 1e-9 * std::max(1.0, std::abs(p_one)));
}

TEST(VecchiaPmvn, SmallConditioningSetsAgreeStatistically) {
  // The renegotiated cross-arm contract: kVecchia computes the Vecchia
  // estimand, which approaches the exact probability as m grows. At m = 16
  // on a 10x10 exponential-kernel grid the log-probability must agree with
  // the dense arm to a few percent.
  const VecchiaProblem pb(10, -1.0);
  rt::Runtime rt(4);
  const core::PmvnOptions opts = qmc_opts();
  double err_d = 0.0;
  const double pd = dense_prob(rt, pb, opts, &err_d);
  const vecchia::VecchiaFactor f =
      vecchia::VecchiaFactor::build(rt, *pb.cov, pb.xy, /*tile=*/32, /*m=*/16);
  const engine::QueryResult rv = core::pmvn_vecchia(rt, f, pb.a, pb.b, opts);
  ASSERT_GT(pd, 0.0);
  ASSERT_GT(rv.prob, 0.0);
  EXPECT_NEAR(std::log(rv.prob), std::log(pd), 0.1)
      << "pv=" << rv.prob << " pd=" << pd << " err_d=" << err_d
      << " err_v=" << rv.error3sigma;
}

TEST(VecchiaPmvn, PrefixProbabilitiesAreMonotoneAndConsistent) {
  const VecchiaProblem pb(6);
  rt::Runtime rt(2);
  core::PmvnOptions opts = qmc_opts();
  opts.prefix = true;
  const vecchia::VecchiaFactor f =
      vecchia::VecchiaFactor::build(rt, *pb.cov, pb.xy, /*tile=*/9, /*m=*/8);
  const engine::QueryResult r = core::pmvn_vecchia(rt, f, pb.a, pb.b, opts);
  ASSERT_EQ(static_cast<i64>(r.prefix_prob.size()), pb.cov->rows());
  for (std::size_t i = 1; i < r.prefix_prob.size(); ++i)
    EXPECT_LE(r.prefix_prob[i], r.prefix_prob[i - 1] + 1e-15) << i;
  EXPECT_DOUBLE_EQ(r.prefix_prob.back(), r.prob);
}

TEST(VecchiaFactor, EngineFactorRequiresCoordinates) {
  // A generator without site coordinates cannot drive the Vecchia arm; the
  // facade must refuse with a diagnostic rather than crash.
  rt::Runtime rt(1);
  const la::DenseGenerator gen(la::Matrix::identity(8));
  std::vector<i64> identity(8);
  std::iota(identity.begin(), identity.end(), i64{0});
  engine::FactorSpec spec{engine::FactorKind::kVecchia, 4, 0.0, -1};
  spec.vecchia_m = 3;
  EXPECT_THROW(
      (void)engine::CholeskyFactor::factor_ordered(rt, gen, identity, spec),
      Error);
}

TEST(VecchiaCrd, ConfidenceRegionsTrackTheDenseMode) {
  // kVecchia confidence regions on a bump field: same machinery as the
  // dense mode downstream of the factor, so regions must agree up to the
  // approximation error of m = 24 conditioning sets — measured as a small
  // symmetric difference and close confidence functions.
  const geo::LocationSet locs = geo::regular_grid(10, 10);
  const auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.15);
  const geo::KernelCovGenerator cov(locs, kernel, 1e-6);
  std::vector<double> mean(locs.size());
  for (std::size_t i = 0; i < locs.size(); ++i) {
    const double dx = locs[i].x - 0.4;
    const double dy = locs[i].y - 0.5;
    mean[i] = 3.2 * std::exp(-10.0 * (dx * dx + dy * dy));
  }
  rt::Runtime rt(4);
  core::CrdOptions opts;
  opts.threshold = 1.0;
  opts.alpha = 0.1;
  opts.tile = 16;
  opts.pmvn.samples_per_shift = 400;
  opts.pmvn.shifts = 5;
  opts.pmvn.sampler = stats::SamplerKind::kRichtmyer;

  const core::CrdResult rd = core::detect_confidence_region(rt, cov, mean, opts);
  core::CrdOptions vopts = opts;
  vopts.mode = core::CrdMode::kVecchia;
  vopts.vecchia_m = 24;
  const core::CrdResult rv =
      core::detect_confidence_region(rt, cov, mean, vopts);

  ASSERT_EQ(rv.region.size(), rd.region.size());
  i64 symdiff = 0;
  for (std::size_t i = 0; i < rd.region.size(); ++i)
    symdiff += rv.region[i] != rd.region[i];
  EXPECT_LE(symdiff, 3) << "vecchia region size " << rv.region_size
                        << " vs dense " << rd.region_size;
  for (std::size_t i = 0; i < rd.confidence.size(); ++i)
    EXPECT_NEAR(rv.confidence[i], rd.confidence[i], 0.05) << "site " << i;
}

}  // namespace
