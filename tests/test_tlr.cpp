// Tests for the TLR substrate: tile compression (RRQR & ACA), recompression
// algebra, the TLR matrix container, and TLR Cholesky vs the dense oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "linalg/blas.hpp"
#include "linalg/potrf.hpp"
#include "linalg/svd.hpp"
#include "ref_householder_qr.hpp"
#include "stats/covariance.hpp"
#include "stats/rng.hpp"
#include "tlr/aca.hpp"
#include "tlr/lr_tile.hpp"
#include "tlr/tlr_matrix.hpp"
#include "tlr/tlr_potrf.hpp"

namespace {

using namespace parmvn;
using geo::KernelCovGenerator;
using la::Matrix;
using la::Trans;
using tlr::CompressionMethod;
using tlr::LowRankTile;
using tlr::TlrMatrix;

// Morton-ordered covariance generator over a grid — the canonical TLR input.
std::unique_ptr<KernelCovGenerator> grid_cov(i64 nx, i64 ny, double range,
                                             double nu = 0.5,
                                             double nugget = 1e-6) {
  geo::LocationSet locs = geo::regular_grid(nx, ny);
  const std::vector<i64> perm = geo::morton_order(locs);
  locs = geo::apply_permutation(locs, perm);
  auto kernel = std::make_shared<stats::MaternKernel>(1.0, range, nu);
  return std::make_unique<KernelCovGenerator>(std::move(locs), kernel, nugget);
}

// Verbatim copy of the unblocked recompression that tlr::recompress
// replaced (unblocked Householder QR and explicit thin Qs from
// ref_householder_qr.hpp, unpreconditioned one-sided Jacobi with
// accumulated V): the oracle for the blocked kernel.
namespace oracle {

struct Svd {
  Matrix u;
  std::vector<double> sigma;
  Matrix v;
};

Svd svd_jacobi(la::ConstMatrixView a) {
  const bool transposed = a.rows < a.cols;
  Matrix work = transposed ? Matrix(a.cols, a.rows) : la::to_matrix(a);
  if (transposed) la::transpose_into(a, work.view());
  const i64 m = work.rows();
  const i64 n = work.cols();
  Matrix v = Matrix::identity(n);
  la::MatrixView w = work.view();
  const double tol = 1e-15;
  const int max_sweeps = 60;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (i64 p = 0; p < n - 1; ++p) {
      for (i64 q = p + 1; q < n; ++q) {
        double app = 0.0, aqq = 0.0, apq = 0.0;
        const double* cp = w.col(p);
        const double* cq = w.col(q);
        for (i64 i = 0; i < m; ++i) {
          app += cp[i] * cp[i];
          aqq += cq[i] * cq[i];
          apq += cp[i] * cq[i];
        }
        if (std::fabs(apq) <= tol * std::sqrt(app * aqq) || apq == 0.0)
          continue;
        rotated = true;
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta)), zeta);
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        double* mp = w.col(p);
        double* mq = w.col(q);
        for (i64 i = 0; i < m; ++i) {
          const double wp = mp[i];
          const double wq = mq[i];
          mp[i] = c * wp - s * wq;
          mq[i] = s * wp + c * wq;
        }
        double* vp = v.view().col(p);
        double* vq = v.view().col(q);
        for (i64 i = 0; i < n; ++i) {
          const double xp = vp[i];
          const double xq = vq[i];
          vp[i] = c * xp - s * xq;
          vq[i] = s * xp + c * xq;
        }
      }
    }
    if (!rotated) break;
  }
  std::vector<double> sigma(static_cast<std::size_t>(n));
  Matrix u(m, n);
  for (i64 j = 0; j < n; ++j) {
    double s = 0.0;
    const double* cj = w.col(j);
    for (i64 i = 0; i < m; ++i) s += cj[i] * cj[i];
    s = std::sqrt(s);
    sigma[static_cast<std::size_t>(j)] = s;
    const double inv = (s > 0.0) ? 1.0 / s : 0.0;
    for (i64 i = 0; i < m; ++i) u(i, j) = cj[i] * inv;
  }
  std::vector<i64> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), i64{0});
  std::sort(order.begin(), order.end(), [&](i64 x, i64 y) {
    return sigma[static_cast<std::size_t>(x)] >
           sigma[static_cast<std::size_t>(y)];
  });
  Svd out;
  out.sigma.resize(static_cast<std::size_t>(n));
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  for (i64 j = 0; j < n; ++j) {
    const i64 src = order[static_cast<std::size_t>(j)];
    out.sigma[static_cast<std::size_t>(j)] =
        sigma[static_cast<std::size_t>(src)];
    for (i64 i = 0; i < m; ++i) out.u(i, j) = u(i, src);
    for (i64 i = 0; i < n; ++i) out.v(i, j) = v(i, src);
  }
  if (transposed) std::swap(out.u, out.v);
  return out;
}

LowRankTile recompress(const LowRankTile& t, double accuracy, i64 max_rank) {
  const i64 r = t.rank();
  Matrix qu = la::to_matrix(t.u.view());
  Matrix qv = la::to_matrix(t.v.view());
  std::vector<double> tau_u, tau_v;
  ref_qr::householder_qr(qu.view(), tau_u);
  ref_qr::householder_qr(qv.view(), tau_v);
  const i64 ku = std::min(qu.rows(), r);
  const i64 kv = std::min(qv.rows(), r);
  Matrix ru(ku, r), rv(kv, r);
  for (i64 j = 0; j < r; ++j) {
    for (i64 i = 0; i <= std::min(j, ku - 1); ++i) ru(i, j) = qu(i, j);
    for (i64 i = 0; i <= std::min(j, kv - 1); ++i) rv(i, j) = qv(i, j);
  }
  Matrix core(ku, kv);
  la::gemm(Trans::kNo, Trans::kYes, 1.0, ru.view(), rv.view(), 0.0,
           core.view());
  Svd svd = oracle::svd_jacobi(core.view());
  i64 keep = la::truncation_rank_sv(svd.sigma, accuracy * svd.sigma.front());
  if (max_rank > 0) keep = std::min(keep, max_rank);
  Matrix qu_thin = ref_qr::form_q_thin(qu.view(), tau_u, ku);
  Matrix qv_thin = ref_qr::form_q_thin(qv.view(), tau_v, kv);
  Matrix w_scaled(ku, keep);
  for (i64 j = 0; j < keep; ++j)
    for (i64 i = 0; i < ku; ++i)
      w_scaled(i, j) = svd.u(i, j) * svd.sigma[static_cast<std::size_t>(j)];
  LowRankTile out;
  out.u = Matrix(t.rows(), keep);
  out.v = Matrix(t.cols(), keep);
  la::gemm(Trans::kNo, Trans::kNo, 1.0, qu_thin.view(), w_scaled.view(), 0.0,
           out.u.view());
  Matrix z(kv, keep);
  for (i64 j = 0; j < keep; ++j)
    for (i64 i = 0; i < kv; ++i) z(i, j) = svd.v(i, j);
  la::gemm(Trans::kNo, Trans::kNo, 1.0, qv_thin.view(), z.view(), 0.0,
           out.v.view());
  return out;
}

}  // namespace oracle

Matrix random_normal(i64 m, i64 n, stats::Xoshiro256pp& g) {
  Matrix a(m, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < m; ++i) a(i, j) = g.next_normal();
  return a;
}

// Orthonormal m x k basis: the Q of a random matrix.
Matrix random_orthonormal(i64 m, i64 k, stats::Xoshiro256pp& g) {
  Matrix q = random_normal(m, k, g);
  std::vector<double> tau;
  ref_qr::householder_qr(q.view(), tau);
  return ref_qr::form_q_thin(q.view(), tau, k);
}

// A tile with the given singular values, written with an inflated rank of
// 2 * sv.size(): U = Q_u diag(sv) B, V = Q_v C with B C^T = I, so the
// concatenated factors carry twice the tile's rank, as after an update.
LowRankTile inflated_tile(i64 m, i64 n, const std::vector<double>& sv,
                          u64 seed) {
  stats::Xoshiro256pp g(seed);
  const i64 k = static_cast<i64>(sv.size());
  Matrix qu = random_orthonormal(m, k, g);
  const Matrix qv = random_orthonormal(n, k, g);
  for (i64 j = 0; j < k; ++j)
    for (i64 i = 0; i < m; ++i) qu(i, j) *= sv[static_cast<std::size_t>(j)];
  // B = [H, I - H], C = [I, I] with H random: B C^T = I exactly.
  const Matrix h = random_normal(k, k, g);
  Matrix b(k, 2 * k), c(k, 2 * k);
  for (i64 j = 0; j < k; ++j) {
    for (i64 i = 0; i < k; ++i) {
      b(i, j) = h(i, j);
      b(i, k + j) = (i == j ? 1.0 : 0.0) - h(i, j);
    }
    c(j, j) = 1.0;
    c(j, k + j) = 1.0;
  }
  LowRankTile t{Matrix(m, 2 * k), Matrix(n, 2 * k)};
  la::gemm(Trans::kNo, Trans::kNo, 1.0, qu.view(), b.view(), 0.0,
           t.u.view());
  la::gemm(Trans::kNo, Trans::kNo, 1.0, qv.view(), c.view(), 0.0,
           t.v.view());
  return t;
}

double tile_diff_fro(const LowRankTile& a, const LowRankTile& b) {
  const Matrix da = a.to_dense();
  const Matrix db = b.to_dense();
  return la::frobenius_diff(da.view(), db.view());
}

// The blocked recompression keeps the oracle's rank and agrees with it to
// 1e-12 sigma_1 on graded spectra whose threshold sits in a gap.
TEST(LowRankTile, RecompressMatchesUnblockedOracle) {
  for (const double acc : {1e-1, 1e-3, 1e-6, 1e-9, 1e-12}) {
    // 30 values graded from 1 down to 4 acc, a gap, then 20 more from
    // acc / 4 down towards rounding level.
    std::vector<double> sv;
    for (int i = 0; i < 30; ++i)
      sv.push_back(std::pow(4.0 * acc, static_cast<double>(i) / 29.0));
    for (int i = 0; i < 20; ++i)
      sv.push_back(acc / 4.0 *
                   std::pow(1e-3, static_cast<double>(i) / 19.0));
    const LowRankTile t = inflated_tile(200, 150, sv, 61);
    const LowRankTile ref = oracle::recompress(t, acc, -1);
    const LowRankTile got = tlr::recompress(t, acc, -1);
    EXPECT_EQ(got.rank(), 30) << "acc=" << acc;
    EXPECT_EQ(got.rank(), ref.rank()) << "acc=" << acc;
    EXPECT_LE(tile_diff_fro(got, ref), 1e-12 * sv.front()) << "acc=" << acc;
  }
}

// Rank-deficient inputs: duplicated columns, and zero-padded (inflated)
// factors — both must come back at the tile's true rank, matching the
// oracle; and a binding cap keeps the same leading components.
TEST(LowRankTile, RecompressRankDeficientAndCappedMatchOracle) {
  stats::Xoshiro256pp g(67);
  const Matrix u0 = random_normal(120, 8, g);
  const Matrix v0 = random_normal(90, 8, g);
  LowRankTile dup{Matrix(120, 16), Matrix(90, 16)};
  la::copy_into(u0.view(), dup.u.sub(0, 0, 120, 8));
  la::copy_into(u0.view(), dup.u.sub(0, 8, 120, 8));
  la::copy_into(v0.view(), dup.v.sub(0, 0, 90, 8));
  la::copy_into(v0.view(), dup.v.sub(0, 8, 90, 8));
  LowRankTile padded{Matrix(120, 13), Matrix(90, 13)};
  la::copy_into(u0.view(), padded.u.sub(0, 0, 120, 8));
  la::copy_into(v0.view(), padded.v.sub(0, 0, 90, 8));
  for (const LowRankTile* t : {&dup, &padded}) {
    const LowRankTile ref = oracle::recompress(*t, 1e-10, -1);
    const LowRankTile got = tlr::recompress(*t, 1e-10, -1);
    EXPECT_EQ(got.rank(), 8);
    EXPECT_EQ(ref.rank(), 8);
    const double scale = la::frobenius_norm(t->to_dense().view());
    EXPECT_LE(tile_diff_fro(got, ref), 1e-12 * scale);
    EXPECT_LE(tlr::lr_error_fro(got, t->to_dense().view()), 1e-12 * scale);
  }
  std::vector<double> sv;
  for (int i = 0; i < 40; ++i) sv.push_back(std::pow(0.7, i));
  const LowRankTile t = inflated_tile(160, 100, sv, 71);
  const LowRankTile ref = oracle::recompress(t, 1e-9, 12);
  const LowRankTile got = tlr::recompress(t, 1e-9, 12);
  EXPECT_EQ(got.rank(), 12);
  EXPECT_EQ(ref.rank(), 12);
  EXPECT_LE(tile_diff_fro(got, ref), 1e-12);
}

// A zero tile given zero updates stays the rank-1 zero tile: with
// sigma_1 = 0 the relative threshold accuracy * sigma_1 would keep every
// component, and the rank would grow by the update's rank each time.
TEST(LowRankTile, ZeroUpdatesKeepZeroTileAtRankOne) {
  LowRankTile t{Matrix(64, 1), Matrix(48, 1)};
  const Matrix u2(64, 5), v2(48, 5);
  for (int update = 0; update < 4; ++update) {
    tlr::add_lowrank_inplace(t, -1.0, u2.view(), v2.view(), 1e-3, -1);
    EXPECT_EQ(t.rank(), 1) << "update " << update;
  }
  EXPECT_EQ(la::frobenius_norm(t.u.view()), 0.0);
  EXPECT_EQ(la::frobenius_norm(t.v.view()), 0.0);
}

// A NaN in a factor reaches the core's SVD, which throws; it must not
// come back as an exact zero block.
TEST(LowRankTile, RecompressNonFiniteFactorThrowsTyped) {
  stats::Xoshiro256pp g(67);
  LowRankTile t{random_normal(64, 10, g), random_normal(48, 10, g)};
  t.u(17, 3) = std::nan("");
  EXPECT_THROW((void)tlr::recompress(t, 1e-3, -1), Error);
}

TEST(LowRankTile, CompressErrorScalesWithAccuracy) {
  auto gen = grid_cov(16, 16, 0.2);
  Matrix block(64, 64);
  gen->fill(128, 0, block.view());  // off-diagonal block
  const double scale = la::frobenius_norm(block.view());
  ASSERT_GT(scale, 0.0);
  double prev_err = std::numeric_limits<double>::infinity();
  for (double tol : {1e-1, 1e-3, 1e-6, 1e-9}) {
    const LowRankTile t = tlr::compress_block(block.view(), tol, -1);
    const double err = tlr::lr_error_fro(t, block.view());
    // Dropped components all have sigma < tol * sigma_1 <= tol * ||A||_F;
    // at most min(m,n)=64 of them.
    EXPECT_LE(err, tol * scale * 8.0 * 1.01) << tol;
    EXPECT_LE(err, prev_err * 1.001) << tol;
    prev_err = err;
    EXPECT_LE(t.rank(), 64);
  }
}

TEST(LowRankTile, NearDiagonalRankDecreasesWithCorrelationRange) {
  // Near-diagonal tiles: stronger correlation (larger range) -> smoother
  // kernel -> lower rank — the mechanism behind the paper's Fig. 5, where
  // the weak-correlation dataset shows the highest tile ranks. The paper's
  // ranges {0.033, 0.1, 0.234} live on a 140x140 grid; on this 16x16 test
  // grid the spacing-matched equivalents are scaled by 140/16.
  i64 weak_rank = 0;
  i64 prev_rank = 1000;
  for (double range : {0.29, 0.875, 2.05}) {
    auto gen = grid_cov(16, 16, range);
    Matrix block(64, 64);
    gen->fill(64, 0, block.view());  // adjacent tile pair
    const LowRankTile t = tlr::compress_block(block.view(), 1e-3, -1);
    EXPECT_LE(t.rank(), prev_rank + 1) << "range=" << range;
    prev_rank = t.rank();
    if (weak_rank == 0) weak_rank = t.rank();
  }
  EXPECT_LT(prev_rank, weak_rank)
      << "strong correlation must compress strictly better than weak";
}

TEST(LowRankTile, RankDecaysWithTileSeparation) {
  // The radial pattern of Fig. 5: tiles farther from the diagonal have
  // lower ranks, for every correlation level.
  for (double range : {0.29, 0.875, 2.05}) {
    auto gen = grid_cov(16, 16, range);
    Matrix near(64, 64), far(64, 64);
    gen->fill(64, 0, near.view());
    gen->fill(192, 0, far.view());
    const LowRankTile tn = tlr::compress_block(near.view(), 1e-3, -1);
    const LowRankTile tf = tlr::compress_block(far.view(), 1e-3, -1);
    EXPECT_LE(tf.rank(), tn.rank()) << "range=" << range;
  }
}

TEST(LowRankTile, RecompressShrinksInflatedRank) {
  auto gen = grid_cov(16, 16, 0.2);
  Matrix block(64, 64);
  gen->fill(128, 64, block.view());
  LowRankTile t = tlr::compress_block(block.view(), 1e-12, -1);
  // Artificially inflate: duplicate columns of U/V (rank doubles, content
  // unchanged up to a factor of 2... use zero padding instead).
  LowRankTile fat;
  fat.u = Matrix(64, t.rank() + 7);
  fat.v = Matrix(64, t.rank() + 7);
  la::copy_into(t.u.view(), fat.u.sub(0, 0, 64, t.rank()));
  la::copy_into(t.v.view(), fat.v.sub(0, 0, 64, t.rank()));
  const LowRankTile slim = tlr::recompress(fat, 1e-8, -1);
  EXPECT_LE(slim.rank(), t.rank());
  EXPECT_LE(tlr::lr_error_fro(slim, block.view()), 1e-7);
}

TEST(LowRankTile, AddLowRankMatchesDenseArithmetic) {
  stats::Xoshiro256pp g(3);
  auto rand_mat = [&](i64 m, i64 n) {
    Matrix a(m, n);
    for (i64 j = 0; j < n; ++j)
      for (i64 i = 0; i < m; ++i) a(i, j) = g.next_normal();
    return a;
  };
  const Matrix u1 = rand_mat(40, 3), v1 = rand_mat(30, 3);
  const Matrix u2 = rand_mat(40, 2), v2 = rand_mat(30, 2);
  LowRankTile t{la::to_matrix(u1.view()), la::to_matrix(v1.view())};
  tlr::add_lowrank_inplace(t, -2.5, u2.view(), v2.view(), 1e-12, -1);
  // Dense reference.
  Matrix ref(40, 30);
  la::gemm(Trans::kNo, Trans::kYes, 1.0, u1.view(), v1.view(), 0.0, ref.view());
  la::gemm(Trans::kNo, Trans::kYes, -2.5, u2.view(), v2.view(), 1.0, ref.view());
  EXPECT_LE(tlr::lr_error_fro(t, ref.view()), 1e-10);
  EXPECT_LE(t.rank(), 5);
}

TEST(Aca, MatchesRrqrAccuracyOnKernelBlocks) {
  auto gen = grid_cov(20, 20, 0.1);
  const i64 nb = 100;
  Matrix dense(nb, nb);
  gen->fill(300, 100, dense.view());
  const double scale = la::frobenius_norm(dense.view());
  for (double tol : {1e-2, 1e-4, 1e-6}) {
    const LowRankTile t = tlr::aca_block(*gen, 300, 100, nb, nb, tol, -1);
    // ACA is heuristic: allow a small slack factor over the requested tol.
    EXPECT_LE(tlr::lr_error_fro(t, dense.view()), 10.0 * tol * scale) << tol;
  }
}

TEST(Aca, ExactOnRankOneBlock) {
  // Constant block is exactly rank 1.
  class OnesGen final : public la::MatrixGenerator {
   public:
    i64 rows() const override { return 50; }
    i64 cols() const override { return 50; }
    double entry(i64, i64) const override { return 3.0; }
  } gen;
  const LowRankTile t = tlr::aca_block(gen, 0, 10, 30, 20, 1e-12, -1);
  EXPECT_EQ(t.rank(), 1);
  Matrix ref(30, 20);
  for (i64 j = 0; j < 20; ++j)
    for (i64 i = 0; i < 30; ++i) ref(i, j) = 3.0;
  EXPECT_LE(tlr::lr_error_fro(t, ref.view()), 1e-10);
}

class TlrCompressSweep : public ::testing::TestWithParam<double> {};

TEST_P(TlrCompressSweep, GlobalReconstructionErrorBounded) {
  const double tol = GetParam();
  rt::Runtime rt(4);
  auto gen = grid_cov(16, 16, 0.1);
  const TlrMatrix m = TlrMatrix::compress(rt, *gen, 64, tol, -1);
  const Matrix dense = geo::dense_from_generator(*gen);
  const Matrix rec = m.to_dense();
  // Each off-diagonal tile errs by <= tol * sigma_1(tile) * sqrt(nb) with
  // sigma_1(tile) <= ||Sigma||_F; summing squares over mirrored triangles:
  const double bound = tol * std::sqrt(2.0 * 64.0) *
                       la::frobenius_norm(dense.view());
  EXPECT_LE(la::frobenius_diff(rec.view(), dense.view()), bound * 1.01)
      << "tol=" << tol;
}

INSTANTIATE_TEST_SUITE_P(Tols, TlrCompressSweep,
                         ::testing::Values(1e-1, 1e-3, 1e-5, 1e-7));

TEST(TlrMatrix, RankGridShapeAndDiagMarkers) {
  rt::Runtime rt(2);
  auto gen = grid_cov(14, 14, 0.1);  // n=196, tile 49 -> 4x4 tiles
  const TlrMatrix m = TlrMatrix::compress(rt, *gen, 49, 1e-3, -1);
  const auto grid = m.rank_grid();
  ASSERT_EQ(grid.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(grid[i].size(), i + 1);
    EXPECT_EQ(grid[i][i], 49);  // dense diagonal marker
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_GE(grid[i][j], 1);
      EXPECT_LT(grid[i][j], 49);
    }
  }
  EXPECT_GT(m.mean_offdiag_rank(), 0.0);
  EXPECT_LE(m.max_tile_rank(), 49);
}

TEST(TlrMatrix, CompressionSavesMemory) {
  rt::Runtime rt(2);
  // Spacing-matched "strong" correlation on a 24x24 grid.
  auto gen = grid_cov(24, 24, 1.4);
  const TlrMatrix m = TlrMatrix::compress(rt, *gen, 96, 1e-3, -1);
  EXPECT_LT(m.memory_bytes(), m.dense_bytes() / 2)
      << "strong correlation at 1e-3 must compress well";
}

TEST(TlrMatrix, AcaMethodProducesComparableRanks) {
  rt::Runtime rt(2);
  auto gen = grid_cov(12, 12, 0.1);
  const TlrMatrix rrqr =
      TlrMatrix::compress(rt, *gen, 48, 1e-4, -1, CompressionMethod::kRrqr);
  const TlrMatrix aca =
      TlrMatrix::compress(rt, *gen, 48, 1e-4, -1, CompressionMethod::kAca);
  EXPECT_NEAR(aca.mean_offdiag_rank(), rrqr.mean_offdiag_rank(),
              0.5 * rrqr.mean_offdiag_rank() + 2.0);
}

// A rank cap of 0 would compress every off-diagonal tile to exactly zero
// (and recompression reads 0 as uncapped): it is rejected up front.
TEST(TlrMatrix, ZeroRankCapIsRejected) {
  rt::Runtime rt(2);
  auto gen = grid_cov(16, 16, 0.1);
  EXPECT_THROW((void)TlrMatrix::compress(rt, *gen, 64, 1e-3, 0), Error);
  Matrix block(64, 64);
  gen->fill(64, 0, block.view());
  EXPECT_THROW((void)tlr::compress_block(block.view(), 1e-3, 0), Error);
  const LowRankTile t = tlr::compress_block(block.view(), 1e-3, -1);
  EXPECT_THROW((void)tlr::recompress(t, 1e-3, 0), Error);
}

TEST(TlrMatrix, MaxRankCapIsHonored) {
  rt::Runtime rt(2);
  auto gen = grid_cov(16, 16, 0.29);  // weak correlation -> high ranks
  const TlrMatrix m = TlrMatrix::compress(rt, *gen, 64, 1e-9, 5);
  EXPECT_LE(m.max_tile_rank(), 5);
}

class TlrPotrfSweep : public ::testing::TestWithParam<double> {};

TEST_P(TlrPotrfSweep, FactorReconstructsWithinTolerance) {
  const double tol = GetParam();
  rt::Runtime rt(4);
  auto gen = grid_cov(16, 16, 0.1, 0.5, 1e-4);
  TlrMatrix m = TlrMatrix::compress(rt, *gen, 64, tol, -1);
  tlr::potrf_tlr(rt, m);

  // Rebuild L from the factorised TLR form and compare L L^T to Sigma.
  Matrix l = m.to_dense();
  la::zero_strict_upper(l.view());
  Matrix rec(l.rows(), l.cols());
  la::gemm(Trans::kNo, Trans::kYes, 1.0, l.view(), l.view(), 0.0, rec.view());
  const Matrix sigma = geo::dense_from_generator(*gen);
  const double err = la::frobenius_diff(rec.view(), sigma.view());
  const double scale = la::frobenius_norm(sigma.view());
  // Relative truncation error accumulates over ~nt^2 tile updates.
  const double nt = static_cast<double>(m.num_tiles());
  EXPECT_LE(err, std::max(1e-11, 20.0 * tol * nt) * scale) << "tol=" << tol;
}

INSTANTIATE_TEST_SUITE_P(Tols, TlrPotrfSweep,
                         ::testing::Values(1e-3, 1e-5, 1e-7, 1e-9));

TEST(TlrPotrf, NonSpdThrows) {
  rt::Runtime rt(2);
  // Indefinite generator: a correlation-like matrix with an impossible
  // off-diagonal block (correlation > 1).
  class BadGen final : public la::MatrixGenerator {
   public:
    i64 rows() const override { return 128; }
    i64 cols() const override { return 128; }
    double entry(i64 i, i64 j) const override {
      if (i == j) return 1.0;
      return 1.7;  // not a valid correlation -> Sigma indefinite
    }
  } gen;
  TlrMatrix m = TlrMatrix::compress(rt, gen, 64, 1e-6, -1);
  EXPECT_THROW(tlr::potrf_tlr(rt, m), Error);
}

}  // namespace

namespace {

TEST(TlrPotrf, SafeguardBoostsIllConditionedMatrix) {
  // Spacing-matched medium correlation at loose accuracy: truncation pushes
  // the matrix below SPD, the safeguard must rescue it with a small boost.
  rt::Runtime rt(2);
  geo::LocationSet locs = geo::regular_grid(40, 40);
  locs = geo::apply_permutation(locs, geo::morton_order(locs));
  auto kernel = std::make_shared<stats::MaternKernel>(1.0, 0.35, 0.5);
  const geo::KernelCovGenerator gen(locs, kernel, 1e-8);
  TlrMatrix m = TlrMatrix::compress(rt, gen, 200, 1e-2, -1);
  const tlr::PotrfTlrInfo info = tlr::potrf_tlr(rt, m);
  // Whether or not a retry fired, the result must be a usable factor and
  // any boost must stay at the order of the compression error.
  EXPECT_LE(info.diag_boost, 1.0);
  Matrix l = m.to_dense();
  la::zero_strict_upper(l.view());
  Matrix rec(l.rows(), l.cols());
  la::gemm(Trans::kNo, Trans::kYes, 1.0, l.view(), l.view(), 0.0, rec.view());
  const Matrix sigma = geo::dense_from_generator(gen);
  EXPECT_LT(la::frobenius_diff(rec.view(), sigma.view()),
            0.2 * la::frobenius_norm(sigma.view()));
}

TEST(TlrPotrf, SafeguardGivesUpOnGenuinelyIndefinite) {
  rt::Runtime rt(1);
  class BadGen2 final : public la::MatrixGenerator {
   public:
    i64 rows() const override { return 96; }
    i64 cols() const override { return 96; }
    double entry(i64 i, i64 j) const override {
      return (i == j) ? -3.0 : 1.5;  // hugely negative diagonal
    }
  } gen;
  TlrMatrix m = TlrMatrix::compress(rt, gen, 48, 1e-6, -1);
  EXPECT_THROW((void)tlr::potrf_tlr(rt, m, /*max_retries=*/1), Error);
}

}  // namespace
