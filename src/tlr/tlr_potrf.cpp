#include "tlr/tlr_potrf.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/fault.hpp"
#include "linalg/blas.hpp"
#include "linalg/jitter.hpp"
#include "linalg/potrf.hpp"
#include "runtime/priority.hpp"

namespace parmvn::tlr {

namespace {

// One factorization attempt; throws parmvn::Error on a non-positive pivot.
void potrf_tlr_attempt(rt::Runtime& rt, TlrMatrix& a) {
  const i64 nt = a.num_tiles();
  const double tol = a.tolerance();
  const i64 cap = a.rank_cap();

  for (i64 k = 0; k < nt; ++k) {
    // POTRF on the dense diagonal tile.
    la::MatrixView dkk = a.diag(k);
    rt.submit("tlr_potrf", {{a.diag_handle(k), rt::Access::kReadWrite}},
              [dkk] {
                PARMVN_FAULT_POINT("tlr.potrf.pivot");
                la::potrf_lower_or_throw(dkk);
              },
              rt::kPrioPanel);

    // TRSM on the V factor of every tile below the pivot:
    // A_ik L_kk^-T = U_ik (L_kk^-1 V_ik)^T  =>  V <- L_kk^-1 V.
    for (i64 i = k + 1; i < nt; ++i) {
      LowRankTile* tik = &a.lr(i, k);
      la::ConstMatrixView lkk = a.diag(k);
      rt.submit("tlr_trsm",
                {{a.diag_handle(k), rt::Access::kRead},
                 {a.lr_handle(i, k), rt::Access::kReadWrite}},
                [lkk, tik] {
                  la::trsm(la::Side::kLeft, la::Trans::kNo, 1.0, lkk,
                           tik->v.view());
                },
                i == k + 1 ? rt::kPrioPanel : rt::kPrioSweep);
    }

    for (i64 i = k + 1; i < nt; ++i) {
      // Diagonal update (dense SYRK shape):
      // D_ii -= A_ik A_ik^T = U (V^T V) U^T.
      LowRankTile* tik = &a.lr(i, k);
      la::MatrixView dii = a.diag(i);
      rt.submit("tlr_syrk",
                {{a.lr_handle(i, k), rt::Access::kRead},
                 {a.diag_handle(i), rt::Access::kReadWrite}},
                [tik, dii] {
                  const i64 r = tik->rank();
                  la::Matrix gram(r, r);
                  la::gemm(la::Trans::kYes, la::Trans::kNo, 1.0,
                           tik->v.view(), tik->v.view(), 0.0, gram.view());
                  la::Matrix w(tik->rows(), r);
                  la::gemm(la::Trans::kNo, la::Trans::kNo, 1.0, tik->u.view(),
                           gram.view(), 0.0, w.view());
                  la::gemm(la::Trans::kNo, la::Trans::kYes, -1.0, w.view(),
                           tik->u.view(), 1.0, dii);
                },
                i == k + 1 ? rt::kPrioPanel : rt::kPrioUpdate);

      // Off-diagonal updates:
      // A_ij -= A_ik A_jk^T = U_i (V_i^T V_j) U_j^T, then recompress.
      for (i64 j = k + 1; j < i; ++j) {
        LowRankTile* tjk = &a.lr(j, k);
        LowRankTile* tij = &a.lr(i, j);
        rt.submit("tlr_gemm",
                  {{a.lr_handle(i, k), rt::Access::kRead},
                   {a.lr_handle(j, k), rt::Access::kRead},
                   {a.lr_handle(i, j), rt::Access::kReadWrite}},
                  [tik, tjk, tij, tol, cap] {
                    const i64 ri = tik->rank();
                    const i64 rj = tjk->rank();
                    la::Matrix cross(ri, rj);
                    la::gemm(la::Trans::kYes, la::Trans::kNo, 1.0,
                             tik->v.view(), tjk->v.view(), 0.0, cross.view());
                    la::Matrix unew(tik->rows(), rj);
                    la::gemm(la::Trans::kNo, la::Trans::kNo, 1.0,
                             tik->u.view(), cross.view(), 0.0, unew.view());
                    add_lowrank_inplace(*tij, -1.0, unew.view(),
                                        tjk->u.view(), tol, cap);
                  },
                  j == k + 1 ? rt::kPrioUpdate : rt::kPrioBulk);
      }
    }
  }
  rt.wait_all();
}

// Estimate of the largest off-diagonal tile spectral norm: the leading
// columns of U/V are ordered by singular value in both compression paths,
// so |u_0||v_0| tracks sigma_1.
double max_tile_sigma1(const TlrMatrix& a) {
  double best = 0.0;
  for (i64 i = 1; i < a.num_tiles(); ++i) {
    for (i64 j = 0; j < i; ++j) {
      const LowRankTile& t = a.lr(i, j);
      const double u0 = la::dot(t.rows(), t.u.view().col(0), t.u.view().col(0));
      const double v0 = la::dot(t.cols(), t.v.view().col(0), t.v.view().col(0));
      best = std::max(best, std::sqrt(u0 * v0));
    }
  }
  return best;
}

}  // namespace

PotrfTlrInfo potrf_tlr(rt::Runtime& rt, TlrMatrix& a, int max_retries) {
  PotrfTlrInfo info;
  // Backup for retries (compressed form: cheap relative to dense).
  TlrMatrix backup = a;
  const double boost_unit = la::jitter_unit(a.tolerance() * max_tile_sigma1(a));
  for (int attempt = 0;; ++attempt) {
    try {
      potrf_tlr_attempt(rt, a);
      return info;
    } catch (const Error&) {
      if (attempt >= max_retries) throw;
      // Restore and boost: the shared escalation schedule (linalg/jitter.hpp)
      // starting at the order of the per-tile truncation error.
      a = backup;
      const double delta = la::jitter_delta(boost_unit, attempt);
      for (i64 k = 0; k < a.num_tiles(); ++k) {
        la::MatrixView d = a.diag(k);
        for (i64 i = 0; i < d.rows; ++i) d(i, i) += delta;
      }
      backup = a;
      info.diag_boost += delta;
      ++info.retries;
    }
  }
}

}  // namespace parmvn::tlr
