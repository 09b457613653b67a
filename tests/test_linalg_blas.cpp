// Tests for the dense BLAS kernels against naive reference implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "stats/rng.hpp"

namespace {

using namespace parmvn;
using la::ConstMatrixView;
using la::Matrix;
using la::MatrixView;
using la::Side;
using la::Trans;

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

void gemm_naive(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                ConstMatrixView b, double beta, MatrixView c) {
  for (i64 j = 0; j < c.cols; ++j)
    for (i64 i = 0; i < c.rows; ++i) {
      double s = 0.0;
      const i64 kk = (ta == Trans::kNo) ? a.cols : a.rows;
      for (i64 l = 0; l < kk; ++l) {
        const double av = (ta == Trans::kNo) ? a(i, l) : a(l, i);
        const double bv = (tb == Trans::kNo) ? b(l, j) : b(j, l);
        s += av * bv;
      }
      c(i, j) = alpha * s + beta * c(i, j);
    }
}

using GemmParam = std::tuple<i64, i64, i64, int, int>;  // m, n, k, ta, tb

class GemmSweep : public ::testing::TestWithParam<GemmParam> {};

TEST_P(GemmSweep, MatchesNaive) {
  const auto [m, n, k, tai, tbi] = GetParam();
  const Trans ta = tai != 0 ? Trans::kYes : Trans::kNo;
  const Trans tb = tbi != 0 ? Trans::kYes : Trans::kNo;
  const Matrix a = (ta == Trans::kNo) ? random_matrix(m, k, 1) : random_matrix(k, m, 1);
  const Matrix b = (tb == Trans::kNo) ? random_matrix(k, n, 2) : random_matrix(n, k, 2);
  Matrix c = random_matrix(m, n, 3);
  Matrix c_ref = to_matrix(c.view());
  la::gemm(ta, tb, 0.7, a.view(), b.view(), -1.3, c.view());
  gemm_naive(ta, tb, 0.7, a.view(), b.view(), -1.3, c_ref.view());
  EXPECT_LT(la::frobenius_diff(c.view(), c_ref.view()),
            1e-12 * (1.0 + la::frobenius_norm(c_ref.view())));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(GemmParam{1, 1, 1, 0, 0}, GemmParam{5, 3, 4, 0, 0},
                      GemmParam{17, 19, 23, 0, 0}, GemmParam{64, 64, 64, 0, 0},
                      GemmParam{33, 65, 127, 0, 0}, GemmParam{40, 40, 1, 0, 0},
                      GemmParam{1, 50, 60, 0, 0}, GemmParam{17, 19, 23, 1, 0},
                      GemmParam{17, 19, 23, 0, 1}, GemmParam{17, 19, 23, 1, 1},
                      GemmParam{64, 32, 96, 1, 1}, GemmParam{128, 4, 7, 1, 0}));

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Matrix a = random_matrix(8, 8, 4);
  Matrix b = random_matrix(8, 8, 5);
  Matrix c(8, 8);
  c(0, 0) = std::numeric_limits<double>::quiet_NaN();
  la::gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), b.view(), 0.0, c.view());
  EXPECT_FALSE(std::isnan(c(0, 0)));
}

TEST(Gemm, AlphaZeroOnlyScales) {
  Matrix a = random_matrix(6, 4, 6);
  Matrix b = random_matrix(4, 5, 7);
  Matrix c = random_matrix(6, 5, 8);
  Matrix expected = to_matrix(c.view());
  la::gemm(Trans::kNo, Trans::kNo, 0.0, a.view(), b.view(), 2.0, c.view());
  for (i64 j = 0; j < 5; ++j)
    for (i64 i = 0; i < 6; ++i)
      EXPECT_DOUBLE_EQ(c(i, j), 2.0 * expected(i, j));
}

// Microkernel edge coverage: every remainder class of the blocked kernel
// (below/at/above the 16x4 microtile and the 128/192/1024 cache blocks is
// overkill here, but 63/64/65 exercises the packed-panel ragged edges), and
// every operand is an interior sub-view of a larger parent so ld > rows and
// row offsets are live.
TEST(GemmEdge, ShapeSweepWithOffsetViews) {
  const i64 sizes[] = {1, 7, 8, 9, 63, 64, 65};
  for (const i64 m : sizes) {
    for (const i64 n : sizes) {
      for (const i64 k : sizes) {
        for (int tai = 0; tai < 2; ++tai) {
          for (int tbi = 0; tbi < 2; ++tbi) {
            const Trans ta = tai != 0 ? Trans::kYes : Trans::kNo;
            const Trans tb = tbi != 0 ? Trans::kYes : Trans::kNo;
            const i64 ar = (ta == Trans::kNo) ? m : k;
            const i64 ac = (ta == Trans::kNo) ? k : m;
            const i64 br = (tb == Trans::kNo) ? k : n;
            const i64 bc = (tb == Trans::kNo) ? n : k;
            const u64 seed = static_cast<u64>(
                ((m * 131 + n) * 131 + k) * 4 + tai * 2 + tbi);
            const Matrix ap = random_matrix(ar + 5, ac + 2, seed);
            const Matrix bp = random_matrix(br + 3, bc + 1, seed + 1);
            const Matrix cp_orig = random_matrix(m + 4, n + 2, seed + 2);
            Matrix cp = to_matrix(cp_orig.view());
            Matrix cp_ref = to_matrix(cp.view());
            la::gemm(ta, tb, -0.9, ap.sub(3, 1, ar, ac), bp.sub(2, 0, br, bc),
                     0.4, cp.sub(1, 2, m, n));
            gemm_naive(ta, tb, -0.9, ap.sub(3, 1, ar, ac),
                       bp.sub(2, 0, br, bc), 0.4, cp_ref.sub(1, 2, m, n));
            EXPECT_LT(la::frobenius_diff(cp.view(), cp_ref.view()),
                      1e-12 * (1.0 + la::frobenius_norm(cp_ref.view())))
                << "m=" << m << " n=" << n << " k=" << k << " ta=" << tai
                << " tb=" << tbi;
            // The frame around the C sub-view must be bit-untouched.
            for (i64 j = 0; j < n + 2; ++j)
              for (i64 i = 0; i < m + 4; ++i)
                if (i < 1 || i >= 1 + m || j < 2 || j >= 2 + n) {
                  ASSERT_EQ(cp(i, j), cp_orig(i, j));
                }
          }
        }
      }
    }
  }
}

// BLAS semantics: a zero multiplier still contributes 0 * x, so a 0 in B
// against an Inf in A yields NaN — and it must do so in *every* column
// position. The seed kernel skipped zeros only in its column-remainder loop,
// so whether NaN appeared depended on n mod 4 and the column index.
TEST(GemmSemantics, ZeroTimesInfIsNanInEveryColumnPosition) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (i64 n = 1; n <= 9; ++n) {
    Matrix a = random_matrix(5, 3, 600 + static_cast<u64>(n));
    a(2, 1) = kInf;
    Matrix b = random_matrix(3, n, 700 + static_cast<u64>(n));
    for (i64 j = 0; j < n; ++j) b(1, j) = 0.0;
    Matrix c(5, n);
    la::gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), b.view(), 0.0, c.view());
    for (i64 j = 0; j < n; ++j) {
      EXPECT_TRUE(std::isnan(c(2, j))) << "n=" << n << " col=" << j;
      EXPECT_TRUE(std::isfinite(c(0, j))) << "n=" << n << " col=" << j;
    }
  }
}

TEST(GemmSemantics, NanInAPoisonsItsRowInEveryColumnPosition) {
  for (i64 n = 1; n <= 9; ++n) {
    Matrix a = random_matrix(4, 6, 800 + static_cast<u64>(n));
    a(1, 4) = std::numeric_limits<double>::quiet_NaN();
    const Matrix b = random_matrix(6, n, 900 + static_cast<u64>(n));
    Matrix c(4, n);
    la::gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), b.view(), 0.0, c.view());
    for (i64 j = 0; j < n; ++j) {
      EXPECT_TRUE(std::isnan(c(1, j))) << "n=" << n << " col=" << j;
      EXPECT_TRUE(std::isfinite(c(0, j))) << "n=" << n << " col=" << j;
    }
  }
}

TEST(GemvSemantics, ZeroXTimesInfIsNanBothTransposes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Matrix a = random_matrix(5, 3, 1001);
  a(2, 1) = kInf;
  std::vector<double> x{1.5, 0.0, -2.0};
  std::vector<double> y(5, 0.25);
  la::gemv(Trans::kNo, 1.0, a.view(), x.data(), 1.0, y.data());
  EXPECT_TRUE(std::isnan(y[2])) << "0 * Inf must reach y";
  EXPECT_TRUE(std::isfinite(y[0]));

  // Transposed: the dot against column 1 hits Inf * 0 as well.
  std::vector<double> x2{1.0, -1.0, 0.0, 2.0, 0.5};
  x2[2] = 0.0;
  std::vector<double> y2(3, 0.0);
  la::gemv(Trans::kYes, 1.0, a.view(), x2.data(), 0.0, y2.data());
  EXPECT_TRUE(std::isnan(y2[1]));
  EXPECT_TRUE(std::isfinite(y2[0]));
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(3, 4), b(5, 6), c(3, 6);
  EXPECT_THROW(
      la::gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), b.view(), 0.0, c.view()),
      Error);
}

TEST(Gemm, PropagatesInfinityInC) {
  // Reference-BLAS semantics: an infinite entry of C stays infinite under
  // the update C <- C - L*Y.
  Matrix l = random_matrix(4, 4, 9);
  Matrix y = random_matrix(4, 4, 10);
  Matrix c = random_matrix(4, 4, 11);
  c(2, 1) = -std::numeric_limits<double>::infinity();
  la::gemm(Trans::kNo, Trans::kNo, -1.0, l.view(), y.view(), 1.0, c.view());
  EXPECT_TRUE(std::isinf(c(2, 1)) && c(2, 1) < 0.0);
  EXPECT_TRUE(std::isfinite(c(0, 0)));
}

class SyrkSweep : public ::testing::TestWithParam<std::tuple<i64, i64, int>> {};

TEST_P(SyrkSweep, LowerMatchesGemmAndUpperUntouched) {
  const auto [n, k, transi] = GetParam();
  const Trans trans = transi != 0 ? Trans::kYes : Trans::kNo;
  const Matrix a =
      (trans == Trans::kNo) ? random_matrix(n, k, 21) : random_matrix(k, n, 21);
  Matrix c = random_matrix(n, n, 22);
  Matrix c_ref = to_matrix(c.view());
  la::syrk(trans, -1.0, a.view(), 0.5, c.view());
  gemm_naive(trans, trans == Trans::kNo ? Trans::kYes : Trans::kNo, -1.0,
             a.view(), a.view(), 0.5, c_ref.view());
  for (i64 j = 0; j < n; ++j) {
    for (i64 i = 0; i < n; ++i) {
      if (i >= j) {
        EXPECT_NEAR(c(i, j), c_ref(i, j), 1e-12 * (1.0 + std::fabs(c_ref(i, j))))
            << i << "," << j;
      } else {
        // Strictly upper part must be bit-identical to the input.
        EXPECT_DOUBLE_EQ(c(i, j), random_matrix(n, n, 22)(i, j));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SyrkSweep,
                         ::testing::Values(std::tuple<i64, i64, int>{1, 1, 0},
                                           std::tuple<i64, i64, int>{7, 5, 0},
                                           std::tuple<i64, i64, int>{130, 40, 0},
                                           std::tuple<i64, i64, int>{64, 64, 1},
                                           std::tuple<i64, i64, int>{129, 3, 1},
                                           std::tuple<i64, i64, int>{20, 33, 1}));

Matrix lower_from_spd(i64 n, u64 seed) {
  // Well-conditioned lower-triangular factor: chol of an SPD matrix.
  Matrix a = random_spd(n, seed);
  // Cheap unblocked Cholesky for the test (avoid depending on potrf here).
  for (i64 j = 0; j < n; ++j) {
    for (i64 k = 0; k < j; ++k)
      for (i64 i = j; i < n; ++i) a(i, j) -= a(j, k) * a(i, k);
    const double d = std::sqrt(a(j, j));
    a(j, j) = d;
    for (i64 i = j + 1; i < n; ++i) a(i, j) /= d;
  }
  for (i64 j = 1; j < n; ++j)
    for (i64 i = 0; i < j; ++i) a(i, j) = 0.0;
  return a;
}

using TrsmParam = std::tuple<i64, i64, int, int>;  // n, nrhs, side, trans

class TrsmSweep : public ::testing::TestWithParam<TrsmParam> {};

TEST_P(TrsmSweep, SolveThenMultiplyRoundtrips) {
  const auto [n, nrhs, sidei, transi] = GetParam();
  const Side side = sidei != 0 ? Side::kRight : Side::kLeft;
  const Trans trans = transi != 0 ? Trans::kYes : Trans::kNo;
  const Matrix l = lower_from_spd(n, 31);
  Matrix b = (side == Side::kLeft) ? random_matrix(n, nrhs, 32)
                                   : random_matrix(nrhs, n, 32);
  const Matrix b0 = to_matrix(b.view());
  la::trsm(side, trans, 1.0, l.view(), b.view());
  // Reconstruct: op(L) * X (left) or X * op(L) (right) must equal B0.
  Matrix rec(b.rows(), b.cols());
  if (side == Side::kLeft) {
    gemm_naive(trans, Trans::kNo, 1.0, l.view(), b.view(), 0.0, rec.view());
  } else {
    gemm_naive(Trans::kNo, trans, 1.0, b.view(), l.view(), 0.0, rec.view());
  }
  EXPECT_LT(la::frobenius_diff(rec.view(), b0.view()),
            1e-10 * (1.0 + la::frobenius_norm(b0.view())));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TrsmSweep,
    ::testing::Combine(::testing::Values<i64>(1, 9, 64, 150, 257),
                       ::testing::Values<i64>(1, 5, 33),
                       ::testing::Values(0, 1), ::testing::Values(0, 1)));

TEST(TrsmSemantics, ZeroLEntryTimesInfIsNanRightSide) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Right, kYes: column 0 of X is Inf; the j=1 update multiplies it by
  // L(1,0) == 0, which must poison column 1 with NaN, not skip it.
  {
    Matrix l = lower_from_spd(3, 1101);
    l(1, 0) = 0.0;
    Matrix b = random_matrix(2, 3, 1102);
    b(0, 0) = kInf;
    b(1, 0) = kInf;
    la::trsm(Side::kRight, Trans::kYes, 1.0, l.view(), b.view());
    EXPECT_TRUE(std::isinf(b(0, 0)));
    EXPECT_TRUE(std::isnan(b(0, 1)));
    EXPECT_TRUE(std::isnan(b(1, 1)));
  }
  // Right, kNo: backward over columns; column 2 of X is Inf and the j=1
  // update multiplies it by L(2,1) == 0.
  {
    Matrix l = lower_from_spd(3, 1103);
    l(2, 1) = 0.0;
    Matrix b = random_matrix(2, 3, 1104);
    b(0, 2) = kInf;
    b(1, 2) = kInf;
    la::trsm(Side::kRight, Trans::kNo, 1.0, l.view(), b.view());
    EXPECT_TRUE(std::isinf(b(0, 2)));
    EXPECT_TRUE(std::isnan(b(0, 1)));
    EXPECT_TRUE(std::isnan(b(1, 1)));
  }
}

TEST(Trsm, AlphaZeroZeroesBWithoutTouchingL) {
  // BLAS contract: alpha == 0 zeroes B and never reads L, even a singular
  // or NaN-laden one; the seed ran a full substitution over the zeroed B.
  Matrix l(3, 3);  // all-zero diagonal: any solve touching L would NaN/Inf
  l(0, 0) = std::numeric_limits<double>::quiet_NaN();
  for (const Side side : {Side::kLeft, Side::kRight}) {
    for (const Trans trans : {Trans::kNo, Trans::kYes}) {
      Matrix b = random_matrix(3, 3, 1301);
      la::trsm(side, trans, 0.0, l.view(), b.view());
      for (i64 j = 0; j < 3; ++j)
        for (i64 i = 0; i < 3; ++i)
          EXPECT_EQ(b(i, j), 0.0) << static_cast<int>(side) << " "
                                  << static_cast<int>(trans);
    }
  }
}

TEST(Trsm, AlphaScaling) {
  const Matrix l = lower_from_spd(6, 33);
  Matrix b1 = random_matrix(6, 3, 34);
  Matrix b2 = to_matrix(b1.view());
  la::trsm(Side::kLeft, Trans::kNo, 2.0, l.view(), b1.view());
  la::trsm(Side::kLeft, Trans::kNo, 1.0, l.view(), b2.view());
  for (i64 j = 0; j < 3; ++j)
    for (i64 i = 0; i < 6; ++i) EXPECT_NEAR(b1(i, j), 2.0 * b2(i, j), 1e-12);
}

TEST(Gemv, BothTransposes) {
  const Matrix a = random_matrix(7, 5, 41);
  std::vector<double> x{1.0, -2.0, 0.5, 3.0, -1.0};
  std::vector<double> y(7, 1.0);
  la::gemv(Trans::kNo, 2.0, a.view(), x.data(), -1.0, y.data());
  for (i64 i = 0; i < 7; ++i) {
    double s = 0.0;
    for (i64 j = 0; j < 5; ++j) s += a(i, j) * x[static_cast<std::size_t>(j)];
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], 2.0 * s - 1.0, 1e-13);
  }
  std::vector<double> x2(7, 0.5);
  std::vector<double> y2(5, 0.0);
  la::gemv(Trans::kYes, 1.0, a.view(), x2.data(), 0.0, y2.data());
  for (i64 j = 0; j < 5; ++j) {
    double s = 0.0;
    for (i64 i = 0; i < 7; ++i) s += a(i, j) * 0.5;
    EXPECT_NEAR(y2[static_cast<std::size_t>(j)], s, 1e-13);
  }
}

TEST(Norms, FrobeniusAndMaxAbs) {
  Matrix a(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = -4.0;
  EXPECT_DOUBLE_EQ(la::frobenius_norm(a.view()), 5.0);
  EXPECT_DOUBLE_EQ(la::max_abs(a.view()), 4.0);
  EXPECT_DOUBLE_EQ(la::frobenius_norm(Matrix(3, 3).view()), 0.0);
}

TEST(Norms, FrobeniusAvoidsOverflow) {
  Matrix a(2, 1);
  a(0, 0) = 1e200;
  a(1, 0) = 1e200;
  EXPECT_NEAR(la::frobenius_norm(a.view()) / (std::sqrt(2.0) * 1e200), 1.0,
              1e-14);
}

TEST(MatrixViews, SubViewAliasesParent) {
  Matrix a = random_matrix(6, 6, 50);
  MatrixView s = a.sub(2, 3, 2, 2);
  s(0, 0) = 42.0;
  EXPECT_DOUBLE_EQ(a(2, 3), 42.0);
  EXPECT_THROW((void)a.sub(5, 5, 3, 1), Error);
}

TEST(MatrixViews, TransposeInto) {
  Matrix a = random_matrix(4, 7, 51);
  Matrix at(7, 4);
  la::transpose_into(a.view(), at.view());
  for (i64 j = 0; j < 7; ++j)
    for (i64 i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(at(j, i), a(i, j));
}

}  // namespace

namespace {

// Every C row comes out of the same reduction however many rows the call
// holds: the engine's batched update (one GEMM over all stacked query rows,
// engine/dense_backend.cpp) is bitwise equal to per-query updates only
// because of this. Each input is run whole, then cut into row slices of
// heights 1, 17, 128 and 1000 (the last one ragged) and run slice by slice.
TEST(Gemm, RowsBitwiseIndependentOfPanelHeight) {
  struct Shape {
    i64 m, n, k;
    Trans tb;
    double alpha, beta;
  };
  // C -= Y * L^T at the tile shape of a crd_dense update (tile 256) over
  // 1100 sample rows — past eight kMC row blocks, with a ragged 100-row
  // piece left by h = 1000 — then a square NN shape whose B panel spans
  // more than one kKC block, then the QMC tile kernel's group GEMM
  // S = Y(:, 0:g0) * L(g0:g0+gb, 0:g0)^T over a 500-sample panel: one
  // 32-row group with k below and above kKC, and a ragged last group
  // (m = 97: one row after k = 96).
  const Shape shapes[] = {{1100, 256, 256, Trans::kYes, -1.0, 1.0},
                          {600, 300, 600, Trans::kNo, -1.0, 1.0},
                          {500, 32, 32, Trans::kYes, 1.0, 0.0},
                          {500, 32, 480, Trans::kYes, 1.0, 0.0},
                          {500, 1, 96, Trans::kYes, 1.0, 0.0}};
  for (const Shape& sh : shapes) {
    const Matrix y = random_matrix(sh.m, sh.k, 60);
    const Matrix l = sh.tb == Trans::kYes ? random_matrix(sh.n, sh.k, 61)
                                          : random_matrix(sh.k, sh.n, 61);
    const Matrix c0 = random_matrix(sh.m, sh.n, 62);
    Matrix whole = c0;
    la::gemm(Trans::kNo, sh.tb, sh.alpha, y.view(), l.view(), sh.beta,
             whole.view());
    for (const i64 h : {i64{1}, i64{17}, i64{128}, i64{1000}}) {
      Matrix stacked = c0;
      for (i64 r0 = 0; r0 < sh.m; r0 += h) {
        const i64 rows = std::min(h, sh.m - r0);
        la::gemm(Trans::kNo, sh.tb, sh.alpha, y.sub(r0, 0, rows, sh.k),
                 l.view(), sh.beta, stacked.sub(r0, 0, rows, sh.n));
      }
      for (i64 j = 0; j < sh.n; ++j)
        for (i64 i = 0; i < sh.m; ++i)
          ASSERT_EQ(stacked(i, j), whole(i, j))
              << "m=" << sh.m << " n=" << sh.n << " k=" << sh.k << " h=" << h
              << " (" << i << "," << j << ")";
    }
  }
}

// The column counterpart: a C entry's bits do not depend on how many columns
// the call holds, so a microtile written back whole (vector load, c + alpha *
// acc, store) rounds like one written back through the ragged-edge loop.
// Each input is run whole, then in column blocks of 1, 5, 13 and 100, for
// alpha in {1, -1, 0.75} and beta in {0, 1}. The shapes are those of
// RowsBitwiseIndependentOfPanelHeight, with 500 and 200 rows for the first
// two (rows play no part in a column slicing, and ragged row counts keep
// both write-back paths in every column block), then the TLR update's
// products at tile 512: Y * V through rank n = 1 and 30 and through
// n = 3, 5, 7, 11, 13, one column either side of the 4- and 6-column register
// tiles (and of 12), then tmp * U^T.
TEST(Gemm, ColsBitwiseIndependentOfPanelWidth) {
  struct Shape {
    i64 m, n, k;
    Trans tb;
  };
  const Shape shapes[] = {
      {500, 256, 256, Trans::kYes}, {200, 300, 600, Trans::kNo},
      {500, 32, 32, Trans::kYes},   {500, 32, 480, Trans::kYes},
      {500, 1, 96, Trans::kYes},    {500, 1, 512, Trans::kNo},
      {500, 3, 512, Trans::kYes},   {500, 5, 512, Trans::kNo},
      {500, 7, 512, Trans::kYes},   {500, 11, 512, Trans::kNo},
      {500, 13, 512, Trans::kYes},  {500, 30, 512, Trans::kNo},
      {500, 512, 30, Trans::kYes}};
  for (const Shape& sh : shapes) {
    const Matrix y = random_matrix(sh.m, sh.k, 70);
    const Matrix l = sh.tb == Trans::kYes ? random_matrix(sh.n, sh.k, 71)
                                          : random_matrix(sh.k, sh.n, 71);
    const Matrix c0 = random_matrix(sh.m, sh.n, 72);
    for (const double alpha : {1.0, -1.0, 0.75})
      for (const double beta : {0.0, 1.0}) {
        Matrix whole = c0;
        la::gemm(Trans::kNo, sh.tb, alpha, y.view(), l.view(), beta,
                 whole.view());
        for (const i64 w : {i64{1}, i64{5}, i64{13}, i64{100}}) {
          Matrix sliced = c0;
          for (i64 j0 = 0; j0 < sh.n; j0 += w) {
            const i64 cols = std::min(w, sh.n - j0);
            const ConstMatrixView lj = sh.tb == Trans::kYes
                                           ? l.sub(j0, 0, cols, sh.k)
                                           : l.sub(0, j0, sh.k, cols);
            la::gemm(Trans::kNo, sh.tb, alpha, y.view(), lj, beta,
                     sliced.sub(0, j0, sh.m, cols));
          }
          for (i64 j = 0; j < sh.n; ++j)
            for (i64 i = 0; i < sh.m; ++i)
              ASSERT_EQ(sliced(i, j), whole(i, j))
                  << "m=" << sh.m << " n=" << sh.n << " k=" << sh.k
                  << " alpha=" << alpha << " beta=" << beta << " w=" << w
                  << " (" << i << "," << j << ")";
        }
      }
  }
}

}  // namespace
