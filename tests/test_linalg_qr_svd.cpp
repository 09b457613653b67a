// Tests for Householder QR, rank-revealing QR and the Jacobi SVD.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "ref_householder_qr.hpp"
#include "stats/rng.hpp"

namespace {

using namespace parmvn;
using la::Matrix;
using la::Trans;

Matrix random_matrix(i64 m, i64 n, u64 seed) {
  stats::Xoshiro256pp g(seed);
  Matrix a(m, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < m; ++i) a(i, j) = 2.0 * g.next_u01() - 1.0;
  return a;
}

// The thin Q (m x k) of a householder_qr factor: Q applied to [I_k; 0].
Matrix thin_q(la::ConstMatrixView qr, const std::vector<double>& tau, i64 k) {
  Matrix q(qr.rows, k);
  for (i64 j = 0; j < k; ++j) q(j, j) = 1.0;
  la::apply_q(qr, tau, q.view());
  return q;
}

// A = U diag(sv) V^T with orthonormal-ish factors built from QR of random
// matrices; gives controlled singular values.
Matrix matrix_with_singular_values(i64 m, i64 n, const std::vector<double>& sv,
                                   u64 seed) {
  const i64 k = static_cast<i64>(sv.size());
  Matrix qu = random_matrix(m, k, seed);
  std::vector<double> tau;
  la::householder_qr(qu.view(), tau);
  Matrix u = thin_q(qu.view(), tau, k);
  Matrix qv = random_matrix(n, k, seed + 1);
  la::householder_qr(qv.view(), tau);
  Matrix v = thin_q(qv.view(), tau, k);
  for (i64 j = 0; j < k; ++j)
    for (i64 i = 0; i < m; ++i) u(i, j) *= sv[static_cast<std::size_t>(j)];
  Matrix a(m, n);
  la::gemm(Trans::kNo, Trans::kYes, 1.0, u.view(), v.view(), 0.0, a.view());
  return a;
}

// Upper-trapezoidal R (min(m, n) x n) out of a dgeqrf-layout factor.
Matrix upper_r(const Matrix& qr) {
  const i64 k = std::min(qr.rows(), qr.cols());
  Matrix r(k, qr.cols());
  for (i64 j = 0; j < qr.cols(); ++j)
    for (i64 i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = qr(i, j);
  return r;
}

double orthonormality_defect(la::ConstMatrixView q) {
  Matrix gram(q.cols, q.cols);
  la::gemm(Trans::kYes, Trans::kNo, 1.0, q, q, 0.0, gram.view());
  for (i64 i = 0; i < q.cols; ++i) gram(i, i) -= 1.0;
  return la::frobenius_norm(gram.view());
}

TEST(HouseholderQr, ReconstructsAndQOrthonormal) {
  for (auto [m, n] : std::vector<std::pair<i64, i64>>{{8, 8}, {20, 7}, {64, 64},
                                                      {100, 30}, {5, 5}}) {
    const Matrix a0 = random_matrix(m, n, 77);
    Matrix a = la::to_matrix(a0.view());
    std::vector<double> tau;
    la::householder_qr(a.view(), tau);
    const i64 k = std::min(m, n);
    Matrix q = thin_q(a.view(), tau, k);
    EXPECT_LT(orthonormality_defect(q.view()), 1e-12) << m << "x" << n;
    // R = leading k x n upper triangle.
    Matrix r(k, n);
    for (i64 j = 0; j < n; ++j)
      for (i64 i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = a(i, j);
    Matrix rec(m, n);
    la::gemm(Trans::kNo, Trans::kNo, 1.0, q.view(), r.view(), 0.0, rec.view());
    EXPECT_LT(la::frobenius_diff(rec.view(), a0.view()),
              1e-12 * (1.0 + la::frobenius_norm(a0.view())))
        << m << "x" << n;
  }
}

// The blocked compact-WY QR and Q application against the unblocked
// reflectors, on shapes straddling the panel width, with zero columns.
TEST(HouseholderQr, BlockedMatchesUnblockedReflectors) {
  const i64 nb = la::kQrPanel;
  for (const i64 m : {i64{1}, i64{7}, i64{64}, i64{512}}) {
    for (const i64 n : {i64{1}, nb - 1, nb, nb + 1, 2 * nb + 3, i64{235}}) {
      for (const bool zero_cols : {false, true}) {
        Matrix a0 = random_matrix(m, n, 31 + static_cast<u64>(m * n));
        if (zero_cols) {
          for (const i64 j : {i64{0}, n / 2, n - 1})
            for (i64 i = 0; i < m; ++i) a0(i, j) = 0.0;
        }
        const double scale = 1.0 + la::frobenius_norm(a0.view());
        Matrix a = la::to_matrix(a0.view());
        std::vector<double> tau;
        la::householder_qr(a.view(), tau);
        Matrix ref = la::to_matrix(a0.view());
        std::vector<double> ref_tau;
        ref_qr::householder_qr(ref.view(), ref_tau);
        const i64 k = std::min(m, n);
        ASSERT_EQ(static_cast<i64>(tau.size()), k);
        for (i64 j = 0; j < k; ++j)
          EXPECT_NEAR(tau[static_cast<std::size_t>(j)],
                      ref_tau[static_cast<std::size_t>(j)], 1e-13)
              << m << "x" << n << " j=" << j;
        const Matrix r = upper_r(a);
        EXPECT_LT(la::frobenius_diff(r.view(), upper_r(ref).view()),
                  1e-13 * scale)
            << m << "x" << n;
        // Q = apply_q([I_k; 0]) agrees with the explicit unblocked Q, is
        // orthonormal, and Q R reproduces A.
        const Matrix q = thin_q(a.view(), tau, k);
        const Matrix q_ref = ref_qr::form_q_thin(ref.view(), ref_tau, k);
        EXPECT_LT(la::frobenius_diff(q.view(), q_ref.view()),
                  1e-13 * std::sqrt(static_cast<double>(k)))
            << m << "x" << n;
        Matrix gram(k, k);
        la::gemm(Trans::kYes, Trans::kNo, 1.0, q.view(), q.view(), 0.0,
                 gram.view());
        for (i64 i = 0; i < k; ++i) gram(i, i) -= 1.0;
        EXPECT_LT(la::max_abs(gram.view()), 1e-13) << m << "x" << n;
        Matrix rec(m, n);
        la::gemm(Trans::kNo, Trans::kNo, 1.0, q.view(), r.view(), 0.0,
                 rec.view());
        EXPECT_LT(la::frobenius_diff(rec.view(), a0.view()), 1e-13 * scale)
            << m << "x" << n;
        // apply_q on a general [X; 0] block equals Q_k X.
        const Matrix x = random_matrix(k, 5, 41);
        Matrix c(m, 5);
        la::copy_into(x.view(), c.sub(0, 0, k, 5));
        la::apply_q(a.view(), tau, c.view());
        Matrix qx(m, 5);
        la::gemm(Trans::kNo, Trans::kNo, 1.0, q_ref.view(), x.view(), 0.0,
                 qx.view());
        EXPECT_LT(la::frobenius_diff(c.view(), qx.view()),
                  1e-13 * (1.0 + la::frobenius_norm(x.view())))
            << m << "x" << n;
      }
    }
  }
}

TEST(Rrqr, ExactLowRankRecovered) {
  const Matrix a = matrix_with_singular_values(40, 30, {5.0, 2.0, 1.0}, 11);
  const la::RrqrResult lr = la::rrqr_truncated(a.view(), 1e-10, -1);
  EXPECT_EQ(lr.rank, 3);
  Matrix rec(40, 30);
  la::gemm(Trans::kNo, Trans::kYes, 1.0, lr.u.view(), lr.v.view(), 0.0,
           rec.view());
  EXPECT_LT(la::frobenius_diff(rec.view(), a.view()), 1e-9);
  EXPECT_LT(lr.residual_fro, 1e-9);
}

TEST(Rrqr, ToleranceControlsActualError) {
  // Geometric singular-value decay; check ||A - UV^T||_F <= tol for a range
  // of tolerances, and that reported residual matches the measured one.
  std::vector<double> sv;
  for (int i = 0; i < 20; ++i) sv.push_back(std::pow(0.5, i));
  const Matrix a = matrix_with_singular_values(50, 45, sv, 13);
  for (double tol : {1e-1, 1e-3, 1e-6, 1e-9}) {
    const la::RrqrResult lr = la::rrqr_truncated(a.view(), tol, -1);
    Matrix rec(50, 45);
    la::gemm(Trans::kNo, Trans::kYes, 1.0, lr.u.view(), lr.v.view(), 0.0,
             rec.view());
    const double err = la::frobenius_diff(rec.view(), a.view());
    EXPECT_LE(err, tol * 1.01) << "tol=" << tol;
    // The tracked residual is a conservative estimate: it must bound the
    // true error (up to downdating noise ~sqrt(eps)) and respect the stop
    // tolerance itself.
    EXPECT_LE(lr.residual_fro, tol * 1.01) << "tol=" << tol;
    EXPECT_LE(err, lr.residual_fro + 1e-7) << "tol=" << tol;
  }
}

TEST(Rrqr, RankMonotoneInTolerance) {
  std::vector<double> sv;
  for (int i = 0; i < 30; ++i) sv.push_back(std::pow(0.7, i));
  const Matrix a = matrix_with_singular_values(60, 60, sv, 17);
  i64 prev_rank = 0;
  for (double tol : {1e-1, 1e-2, 1e-4, 1e-6, 1e-8}) {
    const la::RrqrResult lr = la::rrqr_truncated(a.view(), tol, -1);
    EXPECT_GE(lr.rank, prev_rank);
    prev_rank = lr.rank;
  }
}

TEST(Rrqr, MaxRankCap) {
  std::vector<double> sv;
  for (int i = 0; i < 20; ++i) sv.push_back(std::pow(0.9, i));
  const Matrix a = matrix_with_singular_values(30, 30, sv, 19);
  const la::RrqrResult lr = la::rrqr_truncated(a.view(), 0.0, 5);
  EXPECT_EQ(lr.rank, 5);
  EXPECT_GT(lr.residual_fro, 0.0);
}

TEST(Rrqr, ZeroMatrixGivesRankOneZeroFactor) {
  const Matrix a(12, 9);
  const la::RrqrResult lr = la::rrqr_truncated(a.view(), 1e-12, -1);
  EXPECT_EQ(lr.rank, 1);
  EXPECT_DOUBLE_EQ(la::frobenius_norm(lr.u.view()), 0.0);
  EXPECT_DOUBLE_EQ(la::frobenius_norm(lr.v.view()), 0.0);
}

// Ranks across several panels: the once-per-panel trailing update and the
// per-step pivot-row updates must keep the tracked residual exact.
TEST(Rrqr, MultiPanelRankTracksResidual) {
  std::vector<double> sv;
  for (int i = 0; i < 120; ++i) sv.push_back(std::pow(0.9, i));
  const Matrix a = matrix_with_singular_values(300, 200, sv, 37);
  for (double tol : {1e-2, 1e-4}) {
    const la::RrqrResult lr = la::rrqr_truncated(a.view(), tol, -1);
    EXPECT_GT(lr.rank, la::kQrPanel) << "tol=" << tol;
    Matrix rec(300, 200);
    la::gemm(Trans::kNo, Trans::kYes, 1.0, lr.u.view(), lr.v.view(), 0.0,
             rec.view());
    const double err = la::frobenius_diff(rec.view(), a.view());
    EXPECT_LE(err, tol * 1.01) << "tol=" << tol;
    EXPECT_LE(lr.residual_fro, tol * 1.01) << "tol=" << tol;
    EXPECT_NEAR(err, lr.residual_fro, 1e-7) << "tol=" << tol;
    EXPECT_LT(orthonormality_defect(lr.u.view()), 1e-12) << "tol=" << tol;
  }
}

TEST(SvdJacobi, DiagonalMatrix) {
  Matrix a(4, 4);
  a(0, 0) = 4.0;
  a(1, 1) = 1.0;
  a(2, 2) = 3.0;
  a(3, 3) = 2.0;
  const la::SvdResult s = la::svd_jacobi(a.view());
  ASSERT_EQ(s.sigma.size(), 4u);
  EXPECT_NEAR(s.sigma[0], 4.0, 1e-12);
  EXPECT_NEAR(s.sigma[1], 3.0, 1e-12);
  EXPECT_NEAR(s.sigma[2], 2.0, 1e-12);
  EXPECT_NEAR(s.sigma[3], 1.0, 1e-12);
}

TEST(SvdJacobi, ReconstructionAndOrthogonality) {
  for (auto [m, n] : std::vector<std::pair<i64, i64>>{{12, 12}, {30, 10},
                                                      {10, 30}, {1, 5}}) {
    const Matrix a = random_matrix(m, n, 23);
    const la::SvdResult s = la::svd_jacobi(a.view());
    const i64 k = std::min(m, n);
    ASSERT_EQ(static_cast<i64>(s.sigma.size()), k);
    EXPECT_LT(orthonormality_defect(s.u.view()), 1e-11);
    EXPECT_LT(orthonormality_defect(s.v.view()), 1e-11);
    // Descending order.
    for (std::size_t i = 1; i < s.sigma.size(); ++i)
      EXPECT_LE(s.sigma[i], s.sigma[i - 1] + 1e-14);
    // A == U S V^T.
    Matrix us = la::to_matrix(s.u.view());
    for (i64 j = 0; j < k; ++j)
      for (i64 i = 0; i < m; ++i) us(i, j) *= s.sigma[static_cast<std::size_t>(j)];
    Matrix rec(m, n);
    la::gemm(Trans::kNo, Trans::kYes, 1.0, us.view(), s.v.view(), 0.0,
             rec.view());
    EXPECT_LT(la::frobenius_diff(rec.view(), a.view()),
              1e-11 * (1.0 + la::frobenius_norm(a.view())))
        << m << "x" << n;
  }
}

TEST(SvdJacobi, AgreesWithRrqrResidual) {
  std::vector<double> sv;
  for (int i = 0; i < 15; ++i) sv.push_back(std::pow(0.6, i));
  const Matrix a = matrix_with_singular_values(25, 25, sv, 29);
  const la::SvdResult s = la::svd_jacobi(a.view());
  for (std::size_t i = 0; i < sv.size(); ++i)
    EXPECT_NEAR(s.sigma[i], sv[i], 1e-10) << i;
}

// Duplicated columns: the pivoted-QR preconditioner drops the numerically
// zero half of the spectrum before any rotation.
TEST(SvdJacobi, RankDeficientInputKeepsNumericalRank) {
  const Matrix base = random_matrix(40, 6, 43);
  Matrix a(40, 12);
  la::copy_into(base.view(), a.sub(0, 0, 40, 6));
  la::copy_into(base.view(), a.sub(0, 6, 40, 6));
  for (const bool transpose : {false, true}) {
    Matrix in = transpose ? Matrix(12, 40) : la::to_matrix(a.view());
    if (transpose) la::transpose_into(a.view(), in.view());
    const la::SvdResult s = la::svd_jacobi(in.view());
    ASSERT_EQ(s.sigma.size(), 6u);
    EXPECT_LT(orthonormality_defect(s.u.view()), 1e-12);
    EXPECT_LT(orthonormality_defect(s.v.view()), 1e-12);
    Matrix us = la::to_matrix(s.u.view());
    for (i64 j = 0; j < 6; ++j)
      for (i64 i = 0; i < us.rows(); ++i)
        us(i, j) *= s.sigma[static_cast<std::size_t>(j)];
    Matrix rec(in.rows(), in.cols());
    la::gemm(Trans::kNo, Trans::kYes, 1.0, us.view(), s.v.view(), 0.0,
             rec.view());
    EXPECT_LT(la::frobenius_diff(rec.view(), in.view()),
              1e-13 * la::frobenius_norm(in.view()));
  }
}

TEST(SvdJacobi, ZeroMatrixGivesOneZeroComponent) {
  const Matrix a(9, 5);
  const la::SvdResult s = la::svd_jacobi(a.view());
  ASSERT_EQ(s.sigma.size(), 1u);
  EXPECT_EQ(s.sigma[0], 0.0);
  EXPECT_EQ(s.u.rows(), 9);
  EXPECT_EQ(s.v.rows(), 5);
}

// A spectrum graded over twelve decades comes back to ~eps sigma_1
// absolute accuracy, every component above the rounding cut kept.
TEST(SvdJacobi, GradedSpectrumAccurate) {
  std::vector<double> sv;
  for (int i = 0; i < 25; ++i) sv.push_back(std::pow(10.0, -0.5 * i));
  const Matrix a = matrix_with_singular_values(60, 40, sv, 47);
  const la::SvdResult s = la::svd_jacobi(a.view());
  ASSERT_EQ(s.sigma.size(), sv.size());
  for (std::size_t i = 0; i < sv.size(); ++i)
    EXPECT_NEAR(s.sigma[i], sv[i], 1e-13) << i;
}

// A NaN or inf entry throws instead of reading as the zero matrix: a NaN
// column mass fails every comparison of the pivoted QR, which would stop at
// rank 0.
TEST(SvdJacobi, NonFiniteInputThrowsTyped) {
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (const bool wide : {false, true}) {
      Matrix a = wide ? random_matrix(6, 11, 53) : random_matrix(11, 6, 53);
      a(3, 4) = bad;
      EXPECT_THROW((void)la::svd_jacobi(a.view()), Error) << bad << wide;
      EXPECT_THROW((void)la::rrqr_truncated(a.view(), 1e-8, -1), Error)
          << bad << wide;
    }
  }
}

TEST(TruncationRank, TailRule) {
  const std::vector<double> sigma{4.0, 2.0, 1.0, 0.5};
  // tail^2 after keeping r: r=4:0, r=3:0.25, r=2:1.25, r=1:5.25, r=0:21.25
  EXPECT_EQ(la::truncation_rank(sigma, 0.0), 4);
  EXPECT_EQ(la::truncation_rank(sigma, 0.6), 3);
  EXPECT_EQ(la::truncation_rank(sigma, 1.2), 2);
  EXPECT_EQ(la::truncation_rank(sigma, 2.3), 1);
  EXPECT_EQ(la::truncation_rank(sigma, 100.0), 1);  // floor at 1
}

}  // namespace
