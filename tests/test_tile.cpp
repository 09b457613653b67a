// Tests for the tile layer: descriptor round-trips, generator fill and
// tiled Cholesky vs the dense reference.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/generator.hpp"
#include "linalg/potrf.hpp"
#include "runtime/runtime.hpp"
#include "stats/rng.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tiled_potrf.hpp"

namespace {

using namespace parmvn;
using la::Matrix;
using la::Trans;
using tile::Layout;
using tile::TileMatrix;

Matrix random_matrix(i64 m, i64 n, u64 seed) {
  stats::Xoshiro256pp g(seed);
  Matrix a(m, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < m; ++i) a(i, j) = 2.0 * g.next_u01() - 1.0;
  return a;
}

Matrix random_spd(i64 n, u64 seed) {
  Matrix m = random_matrix(n, n, seed);
  Matrix a(n, n);
  la::gemm(Trans::kNo, Trans::kYes, 1.0, m.view(), m.view(), 0.0, a.view());
  for (i64 i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

TEST(TileMatrix, ShapeBookkeeping) {
  rt::Runtime rt(1);
  TileMatrix t(rt, 100, 70, 32);
  EXPECT_EQ(t.row_tiles(), 4);
  EXPECT_EQ(t.col_tiles(), 3);
  EXPECT_EQ(t.tile_rows(0), 32);
  EXPECT_EQ(t.tile_rows(3), 4);
  EXPECT_EQ(t.tile_cols(2), 6);
  EXPECT_EQ(t.tile(3, 2).rows, 4);
  EXPECT_EQ(t.tile(3, 2).cols, 6);
}

TEST(TileMatrix, DenseRoundtripGeneral) {
  rt::Runtime rt(1);
  const Matrix a = random_matrix(75, 53, 5);
  TileMatrix t(rt, 75, 53, 16);
  t.from_dense(a.view());
  const Matrix back = t.to_dense();
  EXPECT_DOUBLE_EQ(la::frobenius_diff(back.view(), a.view()), 0.0);
}

TEST(TileMatrix, DenseRoundtripLowerSymmetric) {
  rt::Runtime rt(1);
  const Matrix a = random_spd(60, 6);
  TileMatrix t(rt, 60, 60, 17, Layout::kLowerSymmetric);
  t.from_dense(a.view());
  const Matrix back = t.to_dense();
  // to_dense mirrors the lower triangle; the SPD input is symmetric so the
  // round-trip must be exact.
  EXPECT_DOUBLE_EQ(la::frobenius_diff(back.view(), a.view()), 0.0);
}

TEST(TileMatrix, UpperTileAccessRejectedInSymmetricLayout) {
  rt::Runtime rt(1);
  TileMatrix t(rt, 64, 64, 16, Layout::kLowerSymmetric);
  EXPECT_THROW((void)t.tile(0, 1), Error);
  EXPECT_NO_THROW((void)t.tile(1, 0));
}

TEST(TileMatrix, GenerateAsyncMatchesGenerator) {
  rt::Runtime rt(4);
  const Matrix a = random_matrix(90, 90, 7);
  la::DenseGenerator gen(la::to_matrix(a.view()));
  TileMatrix t(rt, 90, 90, 25);
  t.generate_async(rt, gen);
  rt.wait_all();
  EXPECT_DOUBLE_EQ(la::frobenius_diff(t.to_dense().view(), a.view()), 0.0);
}

class TiledPotrfSweep
    : public ::testing::TestWithParam<std::tuple<i64, i64, int>> {};

TEST_P(TiledPotrfSweep, MatchesDenseCholesky) {
  const auto [n, nb, threads] = GetParam();
  rt::Runtime rt(threads);
  const Matrix a = random_spd(n, 300 + static_cast<u64>(n));
  Matrix l_ref = la::to_matrix(a.view());
  la::potrf_lower_or_throw(l_ref.view());
  la::zero_strict_upper(l_ref.view());

  TileMatrix t(rt, n, n, nb, Layout::kLowerSymmetric);
  t.from_dense(a.view());
  tile::potrf_tiled(rt, t);
  // Compare lower triangles.
  const Matrix l_tiled = t.to_dense();
  double max_err = 0.0;
  for (i64 j = 0; j < n; ++j)
    for (i64 i = j; i < n; ++i)
      max_err = std::max(max_err, std::fabs(l_tiled(i, j) - l_ref(i, j)));
  EXPECT_LT(max_err, 1e-10) << "n=" << n << " nb=" << nb;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TiledPotrfSweep,
    ::testing::Values(std::tuple<i64, i64, int>{64, 16, 2},
                      std::tuple<i64, i64, int>{100, 32, 4},
                      std::tuple<i64, i64, int>{128, 32, 4},
                      std::tuple<i64, i64, int>{150, 64, 2},
                      std::tuple<i64, i64, int>{33, 32, 1},
                      std::tuple<i64, i64, int>{257, 64, 4},
                      std::tuple<i64, i64, int>{96, 96, 2}));

TEST(TiledPotrf, NonSpdThrowsThroughRuntime) {
  rt::Runtime rt(2);
  const i64 n = 96;
  Matrix a = random_spd(n, 44);
  a(70, 70) = -5.0;  // break positive definiteness in a later tile
  for (i64 i = 0; i < n; ++i) a(70, i) = a(i, 70) = (i == 70) ? -5.0 : 0.0;
  TileMatrix t(rt, n, n, 32, Layout::kLowerSymmetric);
  t.from_dense(a.view());
  EXPECT_THROW(tile::potrf_tiled(rt, t), Error);
}

}  // namespace
