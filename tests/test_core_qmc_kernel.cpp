// Direct tests for the Algorithm-3 tile kernel (core/qmc_kernel.hpp): chain
// equivalence with the sequential recursion, equivalence with the seed's
// sample-major scalar kernel, infinite-limit handling, dead chains, prefix
// accumulation and tiling invariance.
//
// Mean form: the limits are per-dimension spans, and an (mc x m)
// sample-contiguous mean panel carries each sample's external conditional
// mean (row index = sample, column index = tile-local dimension), as do the
// y outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/qmc_kernel.hpp"
#include "linalg/blas.hpp"
#include "linalg/potrf.hpp"
#include "stats/normal.hpp"
#include "stats/qmc.hpp"
#include "stats/rng.hpp"

namespace {

using namespace parmvn;
using la::Matrix;

constexpr double kInf = std::numeric_limits<double>::infinity();

Matrix lower_factor(i64 n, u64 seed) {
  stats::Xoshiro256pp g(seed);
  Matrix m(n, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < n; ++i) m(i, j) = g.next_normal();
  Matrix s(n, n);
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1.0, m.view(), m.view(), 0.0,
           s.view());
  for (i64 i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
  la::potrf_lower_or_throw(s.view());
  return s;
}

// The seed's sample-major scalar recursion (one chain at a time, plain
// left-to-right dots through the scalar Phi / Phi^-1), in mean form: the
// reference the vectorized panel sweep must agree with.
void reference_kernel(la::ConstMatrixView l, const stats::PointSet& pts,
                      i64 row0, i64 col0, std::span<const double> a,
                      std::span<const double> b, la::ConstMatrixView mean,
                      la::MatrixView y, double* p, double* prefix_acc) {
  const i64 m = l.rows;
  const i64 mc = mean.rows;
  for (i64 j = 0; j < mc; ++j) {
    double pj = p[j];
    for (i64 i = 0; i < m; ++i) {
      double s = 0.0;
      for (i64 k = 0; k < i; ++k) s += l(i, k) * y(j, k);
      s += mean(j, i);
      const double lii = l(i, i);
      const double ai = (a[static_cast<std::size_t>(i)] - s) / lii;
      const double bi = (b[static_cast<std::size_t>(i)] - s) / lii;
      const double phi_a = stats::norm_cdf(ai);
      const double d = stats::norm_cdf_diff(ai, bi);
      pj *= d;
      const double w = pts.value(row0 + i, col0 + j);
      const double u = std::clamp(phi_a + w * d, 1e-16, 1.0 - 1e-16);
      y(j, i) = stats::norm_quantile(u);
      if (prefix_acc != nullptr) prefix_acc[i] += pj;
    }
    p[j] = pj;
  }
}

// A per-sample external mean that varies down and across the panel.
Matrix mean_panel(i64 mc, i64 m) {
  Matrix mean(mc, m);
  for (i64 j = 0; j < mc; ++j)
    for (i64 i = 0; i < m; ++i)
      mean(j, i) = 0.05 * static_cast<double>((i * 5 + j) % 7) - 0.1;
  return mean;
}

// Tile orders for the chain tests: inside the first 32-row group of the
// blocked in-tile chain (12, 24), one short of a group, exactly one, one
// past, and a ragged multi-group tile whose later rows take most of their
// mean from the group GEMM.
constexpr i64 kTileOrders[] = {12, 24, 31, 32, 33, 97};

TEST(QmcKernel, MatchesScalarRecursionPerChain) {
  // A nonzero external mean shifts every sample's limits differently:
  // a' = (a_i - mean(j, i) - s) / l_ii.
  for (const i64 m : kTileOrders) {
    const i64 mc = 5;
    const Matrix l = lower_factor(m, 3);
    const stats::PointSet pts(stats::SamplerKind::kPseudoMC, m, 64, 1, 9);
    std::vector<double> a(static_cast<std::size_t>(m)), b(a.size());
    for (i64 i = 0; i < m; ++i) {
      a[static_cast<std::size_t>(i)] =
          -1.2 - 0.05 * static_cast<double>(i % 12);
      b[static_cast<std::size_t>(i)] = 0.8 + 0.03 * static_cast<double>(i % 4);
    }
    const Matrix mean = mean_panel(mc, m);
    Matrix y(mc, m);
    std::vector<double> p(static_cast<std::size_t>(mc), 1.0);
    core::qmc_tile_kernel(l.view(), pts, 0, 0, a, b, mean.view(), y.view(),
                          p.data(), nullptr);

    // Scalar re-derivation of chain j = 2.
    const i64 j = 2;
    std::vector<double> yref(static_cast<std::size_t>(m));
    double pref = 1.0;
    for (i64 i = 0; i < m; ++i) {
      double s = mean(j, i);
      for (i64 k = 0; k < i; ++k)
        s += l(i, k) * yref[static_cast<std::size_t>(k)];
      const double ai = (a[static_cast<std::size_t>(i)] - s) / l(i, i);
      const double bi = (b[static_cast<std::size_t>(i)] - s) / l(i, i);
      const double d = stats::norm_cdf_diff(ai, bi);
      pref *= d;
      const double u = std::clamp(stats::norm_cdf(ai) + pts.value(i, j) * d,
                                  1e-16, 1.0 - 1e-16);
      yref[static_cast<std::size_t>(i)] = stats::norm_quantile(u);
    }
    EXPECT_NEAR(p[static_cast<std::size_t>(j)], pref, 1e-13) << "m=" << m;
    EXPECT_NEAR(p[static_cast<std::size_t>(j)] / pref, 1.0, 1e-12) << "m=" << m;
    for (i64 i = 0; i < m; ++i)
      EXPECT_NEAR(y(j, i), yref[static_cast<std::size_t>(i)], 1e-11)
          << "m=" << m << " row=" << i;
  }
}

// Old-vs-new equivalence: the panel sweep against the seed's sample-major
// kernel at the panel widths the engine actually produces (full tile, a
// ragged SIMD tail, a single chain), two-sided and one-sided (b = +inf on
// the whole tile). Tolerances absorb the reassociated triangular products
// and the native batched transcendentals (<= ~1e-14 relative per
// evaluation; chains amplify through the quantile feedback).
TEST(QmcKernel, MatchesSampleMajorSeedKernelAcrossWidths) {
  for (const i64 m : kTileOrders) {
    for (const bool one_sided : {false, true}) {
      for (const i64 mc : {i64{1}, i64{7}, i64{64}}) {
        const Matrix l = lower_factor(m, 17);
        const stats::PointSet pts(stats::SamplerKind::kRichtmyer, 2 * m,
                                  std::max<i64>(mc, 8), 2, 31);
        std::vector<double> a(static_cast<std::size_t>(m)), b(a.size());
        for (i64 i = 0; i < m; ++i) {
          a[static_cast<std::size_t>(i)] =
              -1.5 - 0.04 * static_cast<double>((i * 5) % 7);
          b[static_cast<std::size_t>(i)] =
              one_sided ? kInf : 0.6 + 0.05 * static_cast<double>(i % 5);
        }
        const Matrix mean = mean_panel(mc, m);
        Matrix y_new(mc, m), y_old(mc, m);
        std::vector<double> p_new(static_cast<std::size_t>(mc), 1.0);
        std::vector<double> p_old(static_cast<std::size_t>(mc), 1.0);
        std::vector<double> acc_new(static_cast<std::size_t>(m), 0.0);
        std::vector<double> acc_old(static_cast<std::size_t>(m), 0.0);
        core::qmc_tile_kernel(l.view(), pts, m, 0, a, b, mean.view(),
                              y_new.view(), p_new.data(), acc_new.data());
        reference_kernel(l.view(), pts, m, 0, a, b, mean.view(), y_old.view(),
                         p_old.data(), acc_old.data());
        const std::string where = "m=" + std::to_string(m) +
                                  " one_sided=" + std::to_string(one_sided) +
                                  " mc=" + std::to_string(mc);
        for (i64 j = 0; j < mc; ++j) {
          EXPECT_NEAR(p_new[static_cast<std::size_t>(j)] /
                          p_old[static_cast<std::size_t>(j)],
                      1.0, 1e-10)
              << where << " chain=" << j;
          for (i64 i = 0; i < m; ++i)
            EXPECT_NEAR(y_new(j, i), y_old(j, i),
                        1e-9 * (1.0 + std::fabs(y_old(j, i))))
                << where << " chain=" << j << " row=" << i;
        }
        for (i64 i = 0; i < m; ++i)
          EXPECT_NEAR(acc_new[static_cast<std::size_t>(i)],
                      acc_old[static_cast<std::size_t>(i)],
                      1e-10 * static_cast<double>(mc))
              << where << " prefix row=" << i;
      }
    }
  }
}

// The batched==single and worker-count contracts rest on this: a sample's
// chain does not depend on which other samples share its panel. One
// 64-sample panel must equal, bitwise, the same samples run as stacked
// sub-panels of 1, 7 and 56 rows, the prefix sums included (sub-panels fed
// ascending into one accumulator). m = 97 is a ragged multi-group tile;
// m = 257 also has groups whose GEMM reduction (k > 192) spans more than
// one of the microkernel's kKC blocks, the only place where the group GEMM
// and the in-group chain round differently, so a panel-height-dependent
// group width or GEMM split shows there.
TEST(QmcKernel, RowsBitwiseIndependentOfPanelHeight) {
  for (const i64 m : {i64{97}, i64{257}}) {
    const i64 mc = 64;
    const Matrix l = lower_factor(m, 23);
    const stats::PointSet pts(stats::SamplerKind::kRichtmyer, m, mc, 1, 5);
    std::vector<double> a(static_cast<std::size_t>(m)), b(a.size());
    for (i64 i = 0; i < m; ++i) {
      a[static_cast<std::size_t>(i)] = -2.0 + 0.03 * static_cast<double>(i % 9);
      b[static_cast<std::size_t>(i)] =
          i % 3 == 0 ? kInf : 1.5 + 0.05 * static_cast<double>(i % 5);
    }
    const Matrix mean = mean_panel(mc, m);

    Matrix y_whole(mc, m);
    std::vector<double> p_whole(static_cast<std::size_t>(mc), 1.0);
    std::vector<double> acc_whole(static_cast<std::size_t>(m), 0.0);
    core::qmc_tile_kernel(l.view(), pts, 0, 0, a, b, mean.view(),
                          y_whole.view(), p_whole.data(), acc_whole.data());

    Matrix y_stacked(mc, m);
    std::vector<double> p_stacked(static_cast<std::size_t>(mc), 1.0);
    std::vector<double> acc_stacked(static_cast<std::size_t>(m), 0.0);
    i64 r0 = 0;
    for (const i64 h : {i64{1}, i64{7}, i64{56}}) {
      core::qmc_tile_kernel(l.view(), pts, 0, r0, a, b, mean.sub(r0, 0, h, m),
                            y_stacked.view().sub(r0, 0, h, m),
                            p_stacked.data() + r0, acc_stacked.data());
      r0 += h;
    }
    ASSERT_EQ(r0, mc);

    for (i64 j = 0; j < mc; ++j) {
      EXPECT_EQ(p_stacked[static_cast<std::size_t>(j)],
                p_whole[static_cast<std::size_t>(j)])
          << "m=" << m << " chain=" << j;
      for (i64 i = 0; i < m; ++i)
        ASSERT_EQ(y_stacked(j, i), y_whole(j, i))
            << "m=" << m << " chain=" << j << " row=" << i;
    }
    for (i64 i = 0; i < m; ++i)
      EXPECT_EQ(acc_stacked[static_cast<std::size_t>(i)],
                acc_whole[static_cast<std::size_t>(i)])
          << "m=" << m << " prefix row=" << i;
  }
}

TEST(QmcKernel, InfiniteLimitsContributeFactorOne) {
  // a = -inf and b = +inf on the whole tile, under a nonzero mean: every
  // factor is exactly Phi(+inf) - Phi(-inf) = 1, whatever the mean.
  const i64 m = 8;
  const Matrix l = lower_factor(m, 5);
  const stats::PointSet pts(stats::SamplerKind::kRichtmyer, m, 16, 1, 1);
  const std::vector<double> a(static_cast<std::size_t>(m), -kInf);
  const std::vector<double> b(static_cast<std::size_t>(m), kInf);
  const Matrix mean = mean_panel(2, m);
  Matrix y(2, m);
  std::vector<double> p(2, 0.7);
  core::qmc_tile_kernel(l.view(), pts, 0, 0, a, b, mean.view(), y.view(),
                        p.data(), nullptr);
  // Unconstrained dimensions multiply p by exactly 1 but still draw y.
  EXPECT_DOUBLE_EQ(p[0], 0.7);
  EXPECT_DOUBLE_EQ(p[1], 0.7);
  for (i64 i = 0; i < m; ++i) {
    EXPECT_TRUE(std::isfinite(y(0, i)));
    EXPECT_NE(y(0, i), 0.0);  // a genuine quantile draw, not a placeholder
  }
}

TEST(QmcKernel, DeadChainZeroesProbabilityAndStaysFinite) {
  const i64 m = 6;
  const Matrix l = lower_factor(m, 7);
  const stats::PointSet pts(stats::SamplerKind::kPseudoMC, m, 8, 1, 2);
  std::vector<double> a(static_cast<std::size_t>(m), -1.0);
  std::vector<double> b(static_cast<std::size_t>(m), 1.0);
  a[2] = 2.0;  // inverted box at row 2: d = 0 kills the chain
  b[2] = -2.0;
  const Matrix mean(1, m);
  Matrix y(1, m);
  std::vector<double> p(1, 1.0);
  core::qmc_tile_kernel(l.view(), pts, 0, 0, a, b, mean.view(), y.view(),
                        p.data(), nullptr);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  for (i64 i = 0; i < m; ++i) EXPECT_TRUE(std::isfinite(y(0, i))) << i;
}

TEST(QmcKernel, PrefixAccumulatorSumsRunningProducts) {
  const i64 m = 10;
  const i64 mc = 4;
  const Matrix l = lower_factor(m, 11);
  const stats::PointSet pts(stats::SamplerKind::kPseudoMC, m, 32, 1, 3);
  const std::vector<double> a(static_cast<std::size_t>(m), -0.5);
  const std::vector<double> b(static_cast<std::size_t>(m), kInf);
  const Matrix mean(mc, m);
  Matrix y(mc, m);
  std::vector<double> p(static_cast<std::size_t>(mc), 1.0);
  std::vector<double> acc(static_cast<std::size_t>(m), 0.0);
  core::qmc_tile_kernel(l.view(), pts, 0, 0, a, b, mean.view(), y.view(),
                        p.data(), acc.data());
  // Last accumulator row equals the sum of the final products.
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(acc[static_cast<std::size_t>(m - 1)], total, 1e-13);
  // Accumulated prefix sums are non-increasing in the row index.
  for (i64 i = 1; i < m; ++i)
    EXPECT_LE(acc[static_cast<std::size_t>(i)],
              acc[static_cast<std::size_t>(i - 1)] + 1e-13);
  // First row is exact: mc * (Phi(b') - Phi(a')) with a' = a / l00.
  const double d0 = stats::norm_cdf_diff(-0.5 / l(0, 0), kInf);
  EXPECT_NEAR(acc[0], static_cast<double>(mc) * d0, 1e-12);
}

TEST(QmcKernel, RowOffsetSelectsSamplerDimensions) {
  // The same tile processed at different row offsets must consume different
  // sampler dimensions (row0 + i), giving different chains.
  const i64 m = 6;
  const Matrix l = lower_factor(m, 13);
  const stats::PointSet pts(stats::SamplerKind::kPseudoMC, 2 * m, 16, 1, 4);
  const std::vector<double> a(static_cast<std::size_t>(m), -1.0);
  const std::vector<double> b(static_cast<std::size_t>(m), 1.0);
  const Matrix mean(1, m);
  Matrix y0(1, m), y1(1, m);
  std::vector<double> p0(1, 1.0), p1(1, 1.0);
  core::qmc_tile_kernel(l.view(), pts, 0, 0, a, b, mean.view(), y0.view(),
                        p0.data(), nullptr);
  core::qmc_tile_kernel(l.view(), pts, m, 0, a, b, mean.view(), y1.view(),
                        p1.data(), nullptr);
  bool differs = false;
  for (i64 i = 0; i < m; ++i) differs |= (y0(0, i) != y1(0, i));
  EXPECT_TRUE(differs);
}

}  // namespace
