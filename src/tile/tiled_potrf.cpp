#include "tile/tiled_potrf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "common/fault.hpp"
#include "linalg/blas.hpp"
#include "linalg/jitter.hpp"
#include "linalg/potrf.hpp"
#include "runtime/priority.hpp"

namespace parmvn::tile {

void potrf_tiled(rt::Runtime& rt, TileMatrix& a) {
  PARMVN_EXPECTS(a.layout() == Layout::kLowerSymmetric);
  const i64 nt = a.row_tiles();

  // Priorities follow the ladder in runtime/priority.hpp (Chameleon-style
  // hints): the critical path of panel k runs through TRSM(k+1,k) and
  // SYRK(k+1,k+1) into POTRF(k+1), so those two get panel priority along
  // with POTRF itself; GEMMs writing column k+1 feed the next panel's
  // TRSMs and outrank the far trailing updates.
  for (i64 k = 0; k < nt; ++k) {
    la::MatrixView akk = a.tile(k, k);
    rt.submit("potrf", {{a.handle(k, k), rt::Access::kReadWrite}},
              [akk] {
                PARMVN_FAULT_POINT("tile.potrf.pivot");
                la::potrf_lower_or_throw(akk);
              },
              rt::kPrioPanel);

    for (i64 i = k + 1; i < nt; ++i) {
      la::ConstMatrixView lkk = a.tile(k, k);
      la::MatrixView aik = a.tile(i, k);
      rt.submit("trsm",
                {{a.handle(k, k), rt::Access::kRead},
                 {a.handle(i, k), rt::Access::kReadWrite}},
                [lkk, aik] {
                  la::trsm(la::Side::kRight, la::Trans::kYes, 1.0, lkk, aik);
                },
                i == k + 1 ? rt::kPrioPanel : rt::kPrioSweep);
    }

    for (i64 i = k + 1; i < nt; ++i) {
      // Diagonal update: SYRK.
      la::ConstMatrixView aik = a.tile(i, k);
      la::MatrixView aii = a.tile(i, i);
      rt.submit("syrk",
                {{a.handle(i, k), rt::Access::kRead},
                 {a.handle(i, i), rt::Access::kReadWrite}},
                [aik, aii] { la::syrk(la::Trans::kNo, -1.0, aik, 1.0, aii); },
                i == k + 1 ? rt::kPrioPanel : rt::kPrioUpdate);
      // Off-diagonal updates: GEMM.
      for (i64 j = k + 1; j < i; ++j) {
        la::ConstMatrixView ajk = a.tile(j, k);
        la::MatrixView aij = a.tile(i, j);
        rt.submit("gemm",
                  {{a.handle(i, k), rt::Access::kRead},
                   {a.handle(j, k), rt::Access::kRead},
                   {a.handle(i, j), rt::Access::kReadWrite}},
                  [aik, ajk, aij] {
                    la::gemm(la::Trans::kNo, la::Trans::kYes, -1.0, aik, ajk,
                             1.0, aij);
                  },
                  j == k + 1 ? rt::kPrioUpdate : rt::kPrioBulk);
      }
    }
  }
  rt.wait_all();
}

PotrfTiledInfo potrf_tiled_safeguarded(rt::Runtime& rt, TileMatrix& a,
                                       int max_retries) {
  PARMVN_EXPECTS(max_retries >= 0);
  PotrfTiledInfo info;
  if (max_retries == 0) {
    potrf_tiled(rt, a);  // identical path, no backup cost
    return info;
  }
  // Dense backup for restarts; the boost unit is machine epsilon at the
  // diagonal scale — the rounding-level perturbation a dense factorization
  // has already accepted (the TLR arm's analog is its truncation tolerance).
  la::Matrix backup = a.to_dense();
  double max_diag = 0.0;
  for (i64 i = 0; i < backup.rows(); ++i)
    max_diag = std::max(max_diag, std::fabs(backup.view()(i, i)));
  const double boost_unit = la::jitter_unit(
      std::numeric_limits<double>::epsilon() * max_diag);
  for (int attempt = 0;; ++attempt) {
    try {
      potrf_tiled(rt, a);
      return info;
    } catch (const Error&) {
      if (attempt >= max_retries) throw;
      const double delta = la::jitter_delta(boost_unit, attempt);
      for (i64 i = 0; i < backup.rows(); ++i) backup.view()(i, i) += delta;
      a.from_dense(backup.view());
      info.diag_boost += delta;
      ++info.retries;
    }
  }
}

}  // namespace parmvn::tile
