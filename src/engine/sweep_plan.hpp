// The sweep plan: one round of the engine's fused QMC sweep (Algorithm 2's
// tiled task graph) as data, built by the pure plan_sweep(). PmvnEngine
// submits one task per SweepTask in plan order. Every layout rule behind
// the engine's bitwise contracts lives here:
//  * a column tile holds at most m samples of one query and never straddles
//    a query or a prefix slot, so neither batch composition nor the round
//    partition moves a bit;
//  * each query sweeps only its rows [0, extent), the last tile row cut
//    row-exact;
//  * a panel's tiles are stably sorted by descending extent and packed, so
//    tile row r's panels hold only the leading columns, and each query's
//    tiles stay contiguous and ascending (the prefix fold's order);
//  * a round that does not fit one panel is cut where one-slot rounds are;
//  * every M tile's first writer overwrites it before any other task
//    touches it, and its updates come in ascending r.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "stats/qmc.hpp"

namespace parmvn::engine {

/// One column tile of a panel: a slice of one query's samples.
struct ColTile {
  i64 query = 0;    // index into SweepRound::extent
  i64 sample0 = 0;  // first sample within that query's stream
  i64 col0 = 0;     // column offset inside the panel
  i64 width = 0;
  i64 extent = 0;   // the query's swept rows, [0, extent)
  i64 slot = 0;     // the prefix slot its prefix sums fold into
};

/// One task on one column tile: the QMC chain step on tile row r (i == r),
/// or the mean update M_i += Y_r L_ir^T into a later tile row i.
struct SweepTask {
  i64 r = 0;
  i64 i = 0;
  i64 tile = 0;    // index into PanelPlan::tiles
  i64 rows_r = 0;  // rows of tile row r the tile's query sweeps (its Y tile)
  i64 rows_i = 0;  // rows of tile row i the tile's query sweeps (its M tile)
  /// First writer of M tile (i, tile): the QMC task zeroes it, the update
  /// overwrites it (beta = 0) instead of accumulating.
  bool first = false;
  [[nodiscard]] bool qmc() const noexcept { return i == r; }
};

struct PanelPlan {
  std::vector<ColTile> tiles;
  /// Columns of tile row r's M and Y panels in use: the tiles reaching r.
  /// Its size is the number of tile rows the round sweeps.
  std::vector<i64> row_width;
  std::vector<SweepTask> tasks;  // in submission order
};

/// The shape of one round.
struct SweepRound {
  std::span<const i64> extent;  // per query: its swept rows [0, extent)
  std::span<const i64> active;  // the queries this round sweeps, ascending
  i64 sample0 = 0;              // the round's samples, whole slots
  i64 sample1 = 0;
  i64 slot_samples = 0;
  i64 tile = 0;        // m
  i64 panel_cols = 0;  // per-query panel width, a multiple of m
  /// Cross-tile terms as per-pair update tasks; otherwise the backend folds
  /// them into the QMC task (engine/factor_backend.hpp).
  bool pair_tasks = true;
};

using SweepPlan = std::vector<PanelPlan>;

[[nodiscard]] SweepPlan plan_sweep(const SweepRound& round);

/// The monotone-shortcut decision rule, shared by the EP tier (abs_tol = 0,
/// error = ep_margin) and the adaptive stop. `row(i)` estimates row i of a
/// non-increasing curve (a prefix curve; a scalar probability is a one-row
/// curve) as a stats::BlockEstimate. The query is settled once a row's
/// interval lies cleanly below `decision`, which decides every later row at
/// once, provided every earlier row lies cleanly above it or (abs_tol > 0)
/// meets abs_tol. A NaN decision compares false both ways, so only abs_tol
/// can settle such a query.
template <class Row>
[[nodiscard]] bool decision_settled(i64 rows, double decision, double abs_tol,
                                    Row&& row) {
  for (i64 i = 0; i < rows; ++i) {
    const stats::BlockEstimate est = row(i);
    if (est.mean + est.error3sigma < decision) return true;
    if (!((abs_tol > 0.0 && est.error3sigma <= abs_tol) ||
          est.mean - est.error3sigma > decision))
      return false;
  }
  return true;
}

}  // namespace parmvn::engine
