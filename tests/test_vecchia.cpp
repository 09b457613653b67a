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
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/excursion.hpp"
#include "core/pmvn.hpp"
#include "engine/cholesky_factor.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "linalg/microkernel.hpp"
#include "stats/covariance.hpp"
#include "stats/normal.hpp"
#include "stats/qmc.hpp"
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

TEST(VecchiaOrdering, NonFiniteCoordinatesRejectedTyped) {
  // A NaN or infinite coordinate has no grid cell and no distance order:
  // every entry point must throw a typed error naming the site, before
  // any index arithmetic (maxmin used to write out of bounds on NaN).
  const geo::LocationSet locs = geo::regular_grid(4, 4);
  const auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.3);
  const geo::KernelCovGenerator gen(locs, kernel, 1e-6);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf,
                           -kInf}) {
    for (const std::size_t slot : {std::size_t{6}, std::size_t{7}}) {
      std::vector<double> xy = grid_xy(locs);
      xy[slot] = bad;  // site 3, x or y
      const auto names_site = [](const std::function<void()>& call) {
        try {
          call();
        } catch (const Error& e) {
          return std::string(e.what()).find("site 3") != std::string::npos;
        }
        return false;
      };
      EXPECT_TRUE(names_site([&] { (void)vecchia::maxmin_order(xy); }))
          << bad << " slot " << slot;
      EXPECT_TRUE(
          names_site([&] { (void)vecchia::nearest_predecessors(xy, 3); }))
          << bad << " slot " << slot;
      rt::Runtime rt(2);
      EXPECT_TRUE(names_site([&] {
        (void)vecchia::VecchiaFactor::build(rt, gen, xy, /*tile=*/4, /*m=*/3);
      })) << bad << " slot " << slot;
    }
  }
  // The grid-level maxmin path (above the exact cutoff) checks too.
  std::vector<double> big = scatter_xy(5000, 5);
  big[2 * 4321 + 1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)vecchia::maxmin_order(big), Error);
}

// Serial reference for one site's regression: the local Cholesky solve
// VecchiaFactor::build runs per site, spelled out.
void serial_fit(const la::MatrixGenerator& gen, i64 i, std::span<const i64> nb,
                double* w_out, double* d_out) {
  const i64 k = static_cast<i64>(nb.size());
  const double kii = gen.entry(i, i);
  if (k == 0) {
    *d_out = std::sqrt(kii);
    return;
  }
  la::Matrix c(k, k);
  std::vector<double> z(static_cast<std::size_t>(k), 0.0);
  for (i64 q = 0; q < k; ++q)
    for (i64 p = q; p < k; ++p)
      c(p, q) = gen.entry(nb[static_cast<std::size_t>(p)],
                          nb[static_cast<std::size_t>(q)]);
  for (i64 q = 0; q < k; ++q) {
    double diag = c(q, q);
    for (i64 t = 0; t < q; ++t) diag -= c(q, t) * c(q, t);
    const double l = std::sqrt(diag);
    c(q, q) = l;
    for (i64 p = q + 1; p < k; ++p) {
      double s = c(p, q);
      for (i64 t = 0; t < q; ++t) s -= c(p, t) * c(q, t);
      c(p, q) = s / l;
    }
  }
  for (i64 p = 0; p < k; ++p) {
    double s = gen.entry(nb[static_cast<std::size_t>(p)], i);
    for (i64 t = 0; t < p; ++t) s -= c(p, t) * z[static_cast<std::size_t>(t)];
    z[static_cast<std::size_t>(p)] = s / c(p, p);
  }
  double d2 = kii;
  for (i64 p = 0; p < k; ++p)
    d2 -= z[static_cast<std::size_t>(p)] * z[static_cast<std::size_t>(p)];
  *d_out = std::sqrt(d2);
  for (i64 p = k - 1; p >= 0; --p) {
    double s = z[static_cast<std::size_t>(p)];
    for (i64 t = p + 1; t < k; ++t) s -= c(t, p) * w_out[t];
    w_out[p] = s / c(p, p);
  }
}

TEST(VecchiaFactor, TaskBuiltCsrMatchesSerialBitwise) {
  // The build searches and fits inside chunked runtime tasks. Its CSR must
  // be bitwise the serial search (nearest_predecessors) plus a serial fit,
  // whatever the tile (it only shapes the sweep) and the worker count.
  const i64 n = 1100;  // three fit chunks, the last one ragged
  const i64 m = 8;
  const std::vector<double> xy = scatter_xy(n, 17);
  geo::LocationSet locs(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    locs[static_cast<std::size_t>(i)] = {xy[static_cast<std::size_t>(2 * i)],
                                         xy[static_cast<std::size_t>(2 * i + 1)]};
  const auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.1);
  const geo::KernelCovGenerator gen(locs, kernel, 1e-6);

  const vecchia::ConditioningSets sets = vecchia::nearest_predecessors(xy, m);
  std::vector<double> w(sets.neighbors.size(), 0.0);
  std::vector<double> d(static_cast<std::size_t>(n), 0.0);
  for (i64 i = 0; i < n; ++i)
    serial_fit(gen, i, sets.of(i),
               w.data() + sets.offsets[static_cast<std::size_t>(i)],
               d.data() + i);

  for (const int workers : {1, 2, 8}) {
    rt::Runtime rt(workers);
    for (const i64 tile : {i64{7}, i64{64}, i64{100}, i64{512}, n + 900}) {
      const vecchia::VecchiaFactor f =
          vecchia::VecchiaFactor::build(rt, gen, xy, tile, m);
      EXPECT_EQ(f.sets().offsets, sets.offsets) << workers << " " << tile;
      EXPECT_EQ(f.sets().neighbors, sets.neighbors) << workers << " " << tile;
      ASSERT_EQ(f.weights().size(), w.size());
      for (std::size_t e = 0; e < w.size(); ++e)
        ASSERT_EQ(f.weights()[e], w[e]) << workers << " " << tile << " " << e;
      for (std::size_t i = 0; i < d.size(); ++i)
        ASSERT_EQ(f.cond_sd()[i], d[i]) << workers << " " << tile << " " << i;
    }
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

// The dense-tile chain step the CSR one replaced: D_r filled from the
// factor's CSR (d_i on the diagonal, in-tile weights below it, zeros
// elsewhere) and the in-tile regression taken by the strided gemv over all
// of row i of D_r. The rest of the step is spelled out as the kernel does
// it.
void dense_tile_chain_step(const vecchia::VecchiaFactor& f, i64 r,
                           const stats::PointSet& pts, i64 col0,
                           std::span<const double> a, std::span<const double> b,
                           la::ConstMatrixView mean, la::MatrixView y,
                           double* p, double* prefix_acc) {
  const i64 m = f.tile_rows(r);
  const i64 row0 = r * f.tile_size();
  const i64 mc = mean.rows;
  la::Matrix d(m, m);
  for (i64 li = 0; li < m; ++li) {
    const i64 i = row0 + li;
    d(li, li) = f.cond_sd()[static_cast<std::size_t>(i)];
    const std::span<const i64> nb = f.sets().of(i);
    const double* wi =
        f.weights().data() + f.sets().offsets[static_cast<std::size_t>(i)];
    for (std::size_t q = 0; q < nb.size(); ++q)
      if (nb[q] >= row0) d(li, nb[q] - row0) = wi[q];
  }
  const auto col = [](i64 len) {
    return std::vector<double>(static_cast<std::size_t>(len), 0.0);
  };
  std::vector<double> mu = col(mc), av = col(mc), bv = col(mc), phi = col(mc),
                      dv = col(mc), u = col(mc), w = col(mc);
  const la::ConstMatrixView yc = y;
  for (i64 i = 0; i < m; ++i) {
    std::fill(mu.begin(), mu.end(), 0.0);
    la::detail::gemv_notrans_strided_simd(1.0, yc.sub(0, 0, mc, i),
                                          d.view().data + i, d.view().ld,
                                          mu.data());
    for (i64 j = 0; j < mc; ++j) mu[j] += mean.col(i)[j];
    const double di = d(i, i);
    for (i64 j = 0; j < mc; ++j) av[j] = (a[i] - mu[j]) / di;
    for (i64 j = 0; j < mc; ++j) bv[j] = (b[i] - mu[j]) / di;
    stats::norm_cdf_and_diff_batch(mc, av.data(), bv.data(), phi.data(),
                                   dv.data());
    pts.fill_row(row0 + i, col0, mc, w.data());
    for (i64 j = 0; j < mc; ++j)
      u[j] = std::clamp(phi[j] + w[j] * dv[j], 1e-16, 1.0 - 1e-16);
    stats::norm_quantile_batch(mc, u.data(), y.col(i));
    for (i64 j = 0; j < mc; ++j) y.col(i)[j] = mu[j] + di * y.col(i)[j];
    for (i64 j = 0; j < mc; ++j) p[j] *= dv[j];
    if (prefix_acc != nullptr) {
      double t = prefix_acc[i];
      for (i64 j = 0; j < mc; ++j) t += p[j];
      prefix_acc[i] = t;
    }
  }
}

// The whole Vecchia sweep for one query on dense-tile chain steps: per
// tile-wide column tile of samples, every tile row's cross-tile axpys (the
// ascending CSR prefix below the tile) then the dense-tile step. `shifts`
// blocks are evaluated; with `per_shift` the stream is cut into one range
// per shift block, as the round loop sweeps it, else it is one range, as
// the fixed-budget path sweeps it.
engine::QueryResult dense_tile_sweep(const vecchia::VecchiaFactor& f,
                                     const engine::LimitSet& q,
                                     const engine::EngineOptions& opts,
                                     int shifts, bool per_shift) {
  const i64 n = f.dim();
  const i64 m = f.tile_size();
  const i64 mt = f.row_tiles();
  const i64 sps = opts.samples_per_shift;
  const i64 total = sps * shifts;
  const stats::PointSet pts(opts.sampler, n, sps, opts.shifts, q.seed);
  std::vector<double> p(static_cast<std::size_t>(total), 1.0);
  std::vector<double> prefix(static_cast<std::size_t>(n), 0.0);
  const i64 range = per_shift ? sps : total;
  for (i64 s0 = 0; s0 < total; s0 += range) {
    std::vector<double> range_sum(static_cast<std::size_t>(n), 0.0);
    for (i64 c0 = s0; c0 < s0 + range; c0 += m) {
      const i64 w = std::min(m, s0 + range - c0);
      std::vector<la::Matrix> mean, y;
      for (i64 r = 0; r < mt; ++r) {
        mean.emplace_back(w, f.tile_rows(r));
        y.emplace_back(w, f.tile_rows(r));
      }
      std::vector<double> acc(static_cast<std::size_t>(n), 0.0);
      for (i64 r = 0; r < mt; ++r) {
        const auto ru = static_cast<std::size_t>(r);
        for (i64 li = 0; li < f.tile_rows(r); ++li) {
          const i64 i = r * m + li;
          const std::span<const i64> nb = f.sets().of(i);
          const double* wi = f.weights().data() +
                             f.sets().offsets[static_cast<std::size_t>(i)];
          for (std::size_t k = 0; k < nb.size() && nb[k] < r * m; ++k)
            la::axpy(w, wi[k],
                     y[static_cast<std::size_t>(nb[k] / m)].view().col(nb[k] % m),
                     mean[ru].view().col(li));
        }
        const auto row = [&](std::span<const double> lim) {
          return lim.subspan(
              static_cast<std::size_t>(r * m),
              static_cast<std::size_t>(f.tile_rows(r)));
        };
        dense_tile_chain_step(f, r, pts, c0, row(q.a), row(q.b),
                              mean[ru].view(), y[ru].view(), p.data() + c0,
                              q.prefix ? acc.data() + r * m : nullptr);
      }
      for (std::size_t i = 0; i < acc.size(); ++i) range_sum[i] += acc[i];
    }
    for (std::size_t i = 0; i < prefix.size(); ++i) prefix[i] += range_sum[i];
  }

  std::vector<double> means(static_cast<std::size_t>(shifts), 0.0);
  for (i64 s = 0; s < total; ++s)
    means[static_cast<std::size_t>(pts.shift_of(s))] +=
        p[static_cast<std::size_t>(s)];
  for (double& mean : means) mean /= static_cast<double>(sps);
  const stats::BlockEstimate est = stats::combine_block_means(means);
  engine::QueryResult res;
  res.prob = est.mean;
  res.error3sigma = est.error3sigma;
  if (q.prefix) {
    res.prefix_prob = std::move(prefix);
    const double inv = 1.0 / static_cast<double>(total);
    for (double& v : res.prefix_prob) v *= inv;
  }
  return res;
}

TEST(VecchiaPmvn, CsrChainStepMatchesDenseTileReferenceBitwise) {
  // The chain step gathers only the in-tile neighbours; the dense tile it
  // replaced multiplied zeros too. Every Y entry is finite, so those were
  // exact no-ops: fixed and adaptive results, single and fused, equal the
  // dense-tile sweep bit for bit.
  const VecchiaProblem pb(8);  // n = 64
  const i64 n = pb.cov->rows();
  const auto nz = static_cast<std::size_t>(n);
  std::vector<double> topk(nz, -kInf);
  std::fill_n(topk.begin(), 21, 0.3);
  const std::vector<double> box_a(nz, -0.8), box_b(nz, 1.2);
  const std::vector<engine::LimitSet> batch = {
      {pb.a, pb.b, 5, true}, {topk, pb.b, 6, true}, {box_a, box_b, 7, false}};
  rt::Runtime rt(4);
  for (const i64 tile : {i64{16}, i64{7}}) {
    for (const i64 m : {i64{6}, i64{20}}) {
      auto vf = std::make_shared<const vecchia::VecchiaFactor>(
          vecchia::VecchiaFactor::build(rt, *pb.cov, pb.xy, tile, m));
      auto factor = std::make_shared<const engine::CholeskyFactor>(
          engine::CholeskyFactor::borrow_vecchia(*vf));
      for (const bool adaptive : {false, true}) {
        engine::EngineOptions opts;
        opts.samples_per_shift = 150;
        opts.shifts = 4;
        opts.sampler = stats::SamplerKind::kRichtmyer;
        opts.adaptive = adaptive;
        opts.abs_tol = adaptive ? 0.02 : 0.0;
        const engine::PmvnEngine eng(rt, factor, opts);
        const std::vector<engine::QueryResult> fused = eng.evaluate(batch);
        for (std::size_t qi = 0; qi < batch.size(); ++qi) {
          const std::string where =
              "tile=" + std::to_string(tile) + " m=" + std::to_string(m) +
              " adaptive=" + std::to_string(adaptive) +
              " query=" + std::to_string(qi);
          const engine::QueryResult want = dense_tile_sweep(
              *vf, batch[qi], opts, fused[qi].shifts_used, adaptive);
          for (const engine::QueryResult& got :
               {fused[qi], eng.evaluate_one(batch[qi])}) {
            EXPECT_EQ(got.prob, want.prob) << where;
            EXPECT_EQ(got.error3sigma, want.error3sigma) << where;
            ASSERT_EQ(got.prefix_prob.size(), want.prefix_prob.size())
                << where;
            for (std::size_t i = 0; i < want.prefix_prob.size(); ++i)
              EXPECT_EQ(got.prefix_prob[i], want.prefix_prob[i])
                  << where << " prefix=" << i;
          }
        }
      }
    }
  }
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
