// Polymorphic factor backend — the seam between "factor once" and
// "evaluate many".
//
// The PMVN sweep consumes a factor through a small, fixed vocabulary:
// tile geometry, plus one of two per-protocol rule sets for folding tile
// row r's conditioning values into a later tile row i. FactorBackend names
// that vocabulary so CholeskyFactor (the owning facade the caching/serving
// layers hold) and PmvnEngine (the task-graph builder) never branch on a
// concrete format. Dense-tiled and TLR factors are thin adapters
// (dense_backend.hpp / tlr_backend.hpp); the Vecchia sparse
// inverse-Cholesky arm (vecchia/vecchia_backend.hpp) is the third.
//
// Two sweep protocols, selected by mean_panel_form():
//
//  * Reduced-limit form (dense, TLR — mean_panel_form() == false): the A/B
//    panels carry the *transformed integration limits*, initialised to the
//    query limits and reduced in place by apply_update()'s wide GEMMs
//    (A -= Y L_ir^T). The QMC kernel reads the diagonal tile (diag_view()),
//    and every (i, r) tile pair carries an off-diagonal block, named by
//    off_handle() for dependency tracking. Infinite limits cost
//    nothing: a tile row on which every active query has b = +inf gets no
//    B panel (an empty view, which apply_update and the QMC kernel read as
//    b = +inf), and the sweep stops at the constrained extent — the tile
//    row holding the last row where some query has a > -inf or b < +inf —
//    since later rows multiply every sample's probability by exactly 1.
//
//  * Mean form (Vecchia — mean_panel_form() == true): conditioning sets are
//    sparse, so per-pair GEMM tasks would drown in task/handle overhead.
//    Instead the A panel accumulates the *external conditional mean*
//    (initialised to zero by allocation) and the kernel standardises the
//    original query limits against it row by row. Row r's integrand task
//    makes two calls: accumulate_external() folds in every contribution
//    from earlier tile rows — a deterministic sequence of unit-stride
//    axpys — and chain_step() runs the row's QMC chain step, adding the
//    in-tile neighbours itself. The per-column-tile chain (already
//    serialised by the engine's probability-product handle) is the only
//    dependency needed, so no per-pair or per-tile handles or tasks exist
//    at all. The B panel is unused and never allocated.
//
// Both protocols keep the determinism contracts: every per-sample row of a
// panel is computed by arithmetic whose reduction order depends only on the
// dimension index, never on the panel width or task interleaving, so fused
// batches stay bitwise equal to single-query runs and results are identical
// across worker counts *within* a factor kind.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "linalg/matrix.hpp"
#include "runtime/runtime.hpp"

namespace parmvn::stats {
class PointSet;
}

namespace parmvn::engine {

enum class FactorKind { kDense, kTlr, kVecchia };

class FactorBackend {
 public:
  virtual ~FactorBackend() = default;

  [[nodiscard]] virtual FactorKind kind() const noexcept = 0;
  [[nodiscard]] virtual i64 dim() const noexcept = 0;
  [[nodiscard]] virtual i64 tile_size() const noexcept = 0;
  [[nodiscard]] virtual i64 row_tiles() const noexcept = 0;
  [[nodiscard]] virtual i64 tile_rows(i64 r) const noexcept = 0;

  // ---- reduced-limit protocol (mean_panel_form() == false) ----

  /// Lower-triangular Cholesky diagonal tile L_rr of tile row r, and the
  /// handle naming it.
  [[nodiscard]] virtual la::ConstMatrixView diag_view(i64 r) const {
    (void)r;
    PARMVN_ASSERT(!"diag_view: backend has no diagonal tiles");
    return {};
  }
  [[nodiscard]] virtual rt::DataHandle diag_handle(i64 r) const {
    (void)r;
    PARMVN_ASSERT(!"diag_handle: backend has no diagonal tiles");
    return rt::DataHandle{};
  }

  /// Handle naming the (i, r) off-diagonal block, i > r.
  [[nodiscard]] virtual rt::DataHandle off_handle(i64 i, i64 r) const {
    (void)i;
    (void)r;
    PARMVN_ASSERT(!"off_handle: backend has no off-diagonal blocks");
    return rt::DataHandle{};
  }

  /// A -= Y * L_ir^T, B -= Y * L_ir^T over (possibly wide, multi-query)
  /// sample-contiguous panels (rows = samples, columns = dimensions). An
  /// empty `b` (data == nullptr) means b = +inf on tile row i, which the
  /// update leaves unchanged: only A is updated.
  virtual void apply_update(i64 i, i64 r, la::ConstMatrixView y,
                            la::MatrixView a, la::MatrixView b) const {
    (void)i;
    (void)r;
    (void)y;
    (void)a;
    (void)b;
    PARMVN_ASSERT(!"apply_update: backend uses the mean-panel protocol");
  }

  // ---- mean-panel protocol (mean_panel_form() == true) ----

  [[nodiscard]] virtual bool mean_panel_form() const noexcept { return false; }

  /// Fold every external (earlier-tile) regression contribution into tile
  /// row r's mean panel: mean(:, c) += w * Y[k / tile](:, k % tile) for each
  /// cross-tile neighbour k of row c, over panel rows
  /// [row_off, row_off + nrows). Applied in a fixed order (ascending target
  /// column, then ascending global neighbour), so the arithmetic is
  /// deterministic and — being a per-sample-row independent axpy sequence —
  /// width-independent. `y_panels` is the engine's per-tile-row
  /// conditioning panel array; only rows r' < r are read, which the
  /// caller's task chain has completed.
  virtual void accumulate_external(i64 r, std::span<const la::Matrix> y_panels,
                                   i64 row_off, i64 nrows,
                                   la::MatrixView mean_tile) const {
    (void)r;
    (void)y_panels;
    (void)row_off;
    (void)nrows;
    (void)mean_tile;
    PARMVN_ASSERT(!"accumulate_external: backend uses reduced-limit panels");
  }

  /// Tile row r's QMC chain step over one column tile, after
  /// accumulate_external() (vecchia/vecchia_kernel.hpp): `mean` is the
  /// column tile's mean panel, `a`/`b` the row's query limits, `y` receives
  /// the realized values, `p` the running per-sample products (updated),
  /// `prefix_acc` (optional) the per-row running-product sums.
  virtual void chain_step(i64 r, const stats::PointSet& pts, i64 col0,
                          std::span<const double> a, std::span<const double> b,
                          la::ConstMatrixView mean, la::MatrixView y, double* p,
                          double* prefix_acc) const {
    (void)r;
    (void)pts;
    (void)col0;
    (void)a;
    (void)b;
    (void)mean;
    (void)y;
    (void)p;
    (void)prefix_acc;
    PARMVN_ASSERT(!"chain_step: backend uses reduced-limit panels");
  }

  // ---- EP screening-row protocol (ep/ep_screen.hpp) ----
  //
  // Every arm expresses ordered coordinate k generatively as
  //   x_k = sum_j coef_j * s_j + d_k * z_k,   z_k ~ N(0, 1),
  // over parent slots s_j with j < k. Two slot spaces:
  //  * latent (dense, TLR — ep_latent_slots() == true): the slots are the
  //    Cholesky innovations z_j, coefficients are row k of L, d_k = L_kk;
  //  * observed (Vecchia — false): the slots are earlier coordinates x_j,
  //    coefficients are the conditioning-set regression weights, d_k the
  //    conditional sd, and z_k is private noise with no slot of its own.

  [[nodiscard]] virtual bool ep_latent_slots() const noexcept { return true; }

  /// Fill `parents` (cleared first) with row k's (slot, coefficient) pairs
  /// in ascending slot order — a fixed order, so the EP screen's reductions
  /// are deterministic — and return the innovation sd d_k. TLR backends
  /// materialise the row from U V^T on the fly; callers that sweep rows
  /// repeatedly should flatten once (the screen builds a CSR copy).
  virtual double ep_row(i64 k,
                        std::vector<std::pair<i64, double>>& parents) const = 0;
};

}  // namespace parmvn::engine
