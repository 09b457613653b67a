// Polymorphic factor backend — the seam between "factor once" and
// "evaluate many".
//
// The PMVN sweep consumes a factor through a small, fixed vocabulary: tile
// geometry, one QMC chain step per (tile row, column tile), and a rule for
// folding tile row r's conditioning values into later tile rows.
// FactorBackend names that vocabulary so CholeskyFactor (the owning facade
// the caching/serving layers hold) and PmvnEngine (the task-graph builder)
// never branch on a concrete format. Dense-tiled and TLR factors are thin
// adapters (dense_backend.hpp / tlr_backend.hpp); the Vecchia sparse
// inverse-Cholesky arm (vecchia/vecchia_backend.hpp) is the third.
//
// Every arm sweeps in one panel protocol, the mean form of Algorithm 2: a
// per-tile-row mean panel M starts at zero and accumulates the external
// (earlier-tile-row) conditional mean of each sample, and chain_step()
// standardises the query's original limits against it row by row,
// a' = (a_i - M(:, i) - s) / d_i with s the in-tile contribution. The
// limits reach the kernel as per-dimension spans; infinite limits need no
// special case, and the engine stops each query's sweep at its own
// constrained extent e — 1 + the last row where that query has a > -inf or
// b < +inf — since later rows multiply every sample's probability by
// exactly 1. A query's last swept tile row is therefore often partial: its
// chain step and the updates into it cover only the tile's leading
// e - r * tile rows, and every call below takes that row count from the
// spans and views it is given (a.size(), mean.cols), never from
// tile_rows().
//
// The arms differ in one question only, pair_update_tasks(): are the
// cross-tile contributions separate per-pair tasks, or folded into the
// chain task?
//
//  * Per-pair update tasks (dense, TLR): every (i, r) tile pair carries a
//    factor block, so the engine submits one apply_update() task per pair
//    and column tile, M_i += Y_r L_ir^T on that column tile's samples; each
//    column tile's chain thus waits only on its own updates.
//
//  * Folded into the chain task (Vecchia): conditioning sets are sparse, so
//    per-pair GEMM tasks would drown in task/handle overhead. Row r's chain
//    task first calls accumulate_external(), which folds in every
//    contribution from earlier tile rows — a deterministic sequence of
//    unit-stride axpys — then chain_step(). The per-column-tile chain
//    (already serialised by the engine's probability-product handle) is the
//    only dependency needed, so no per-pair or per-tile handles or tasks
//    exist at all.
//
// The factor is complete before any sweep starts (CholeskyFactor::factor
// is its own submit…wait_all epoch), so sweep tasks declare no accesses on
// factor tiles. Every per-sample row of a panel is computed by arithmetic
// whose reduction order depends only on the dimension index, never on the
// panel width or task interleaving, so fused batches stay bitwise equal to
// single-query runs and results are identical across worker counts
// *within* a factor kind.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "linalg/matrix.hpp"

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

  // ---- the sweep (mean form) ----

  /// Whether the cross-tile contributions are per-pair update tasks
  /// (apply_update) rather than folded into the chain task
  /// (accumulate_external).
  [[nodiscard]] virtual bool pair_update_tasks() const noexcept {
    return true;
  }

  /// M = beta * M + Y * L_ir^T over sample-contiguous panels (rows =
  /// samples, columns = dimensions; the engine passes one column tile):
  /// folds tile row r's conditioning values `y` into tile row i's mean
  /// panel. Called once per (i, r) pair and column tile, i > r, in
  /// ascending r for each i. beta is 1, or 0 for the tile's first writer,
  /// whose `mean` is uninitialised: la::gemm zero-fills it before
  /// accumulating, so the bits are those of accumulating into zeros.
  /// `y` holds all tile_rows(r) columns; `mean` may hold fewer than
  /// tile_rows(i) — tile row i is then the query's partial last one, and
  /// only L_ir's leading mean.cols rows apply. Each output entry sums over
  /// the same k either way, so the narrowing moves no bit.
  virtual void apply_update(i64 i, i64 r, la::ConstMatrixView y,
                            la::MatrixView mean, double beta) const {
    (void)i;
    (void)r;
    (void)y;
    (void)mean;
    (void)beta;
    PARMVN_ASSERT(!"apply_update: backend folds updates into chain tasks");
  }

  /// Fold every external (earlier-tile) regression contribution into tile
  /// row r's mean panel: mean(:, c) += w * Y[k / tile](:, k % tile) for each
  /// cross-tile neighbour k of row c < mean_tile.cols, over panel rows
  /// [row_off, row_off + nrows). Applied in a fixed order (ascending target
  /// column, then ascending global neighbour), so the arithmetic is
  /// deterministic and — being a per-sample-row independent axpy sequence —
  /// width-independent. `y_panels` is the engine's per-tile-row
  /// conditioning panel array; only rows r' < r are read, which the
  /// caller's task chain has completed.
  virtual void accumulate_external(
      i64 r, std::span<const la::ConstMatrixView> y_panels, i64 row_off,
      i64 nrows, la::MatrixView mean_tile) const {
    (void)r;
    (void)y_panels;
    (void)row_off;
    (void)nrows;
    (void)mean_tile;
    PARMVN_ASSERT(!"accumulate_external: backend uses per-pair update tasks");
  }

  /// Tile row r's QMC chain step over one column tile, once its mean tile
  /// holds every earlier tile row's contribution: `mean` is the column
  /// tile's mean panel, `a`/`b` the row's original query limits, `y`
  /// receives the conditioning values, `p` the running per-sample products
  /// (updated), `prefix_acc` (optional) the per-row running-product sums.
  /// `col0` is the column tile's first global sample. The step covers the
  /// tile's leading a.size() rows (== b.size() == mean.cols == y.cols,
  /// at most tile_rows(r)); fewer than tile_rows(r) on a query's partial
  /// last tile row, whose later rows it never reads or writes.
  virtual void chain_step(i64 r, const stats::PointSet& pts, i64 col0,
                          std::span<const double> a, std::span<const double> b,
                          la::ConstMatrixView mean, la::MatrixView y, double* p,
                          double* prefix_acc) const = 0;

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
