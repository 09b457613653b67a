#include "engine/sweep_plan.hpp"

#include <algorithm>

namespace parmvn::engine {

SweepPlan plan_sweep(const SweepRound& round) {
  const i64 m = round.tile;
  const i64 slot = round.slot_samples;
  const auto row_tiles_of = [m](i64 e) { return (e + m - 1) / m; };
  const auto extent_of = [&](i64 q) { return round.extent[q]; };
  // The tile rows of the active query with the largest extent.
  i64 mts = 0;
  for (const i64 q : round.active)
    mts = std::max(mts, row_tiles_of(extent_of(q)));

  SweepPlan plan;
  const auto add_panel = [&](i64 panel0, i64 panel1) {
    PanelPlan& pp = plan.emplace_back();
    for (const i64 q : round.active) {
      for (i64 c = panel0; c < panel1;) {
        const i64 slot_end = (c / slot + 1) * slot;
        const i64 w = std::min({m, slot_end - c, panel1 - c});
        pp.tiles.push_back({q, c, 0, w, extent_of(q), c / slot});
        c += w;
      }
    }
    std::stable_sort(pp.tiles.begin(), pp.tiles.end(),
                     [](const ColTile& x, const ColTile& y) {
                       return x.extent > y.extent;
                     });
    pp.row_width.assign(static_cast<std::size_t>(mts), 0);
    i64 width = 0;
    for (ColTile& ct : pp.tiles) {
      ct.col0 = width;
      width += ct.width;
      for (i64 r = 0; r < row_tiles_of(ct.extent); ++r)
        pp.row_width[static_cast<std::size_t>(r)] = width;
    }

    // One pipeline per column tile: tile row r's QMC task, then (per-pair
    // backends) one update into each later tile row i, so tile row r + 1
    // of a tile waits only for its own updates. M tile (i, t)'s first
    // writer is the (i, 0) update, or the QMC task on tile row 0 and, for
    // folded backends (external terms accumulate in the task), every row.
    const i64 nct = static_cast<i64>(pp.tiles.size());
    for (i64 r = 0; r < mts; ++r) {
      for (i64 t = 0; t < nct; ++t) {
        const i64 e = pp.tiles[static_cast<std::size_t>(t)].extent;
        const i64 qts = row_tiles_of(e);
        if (r >= qts) continue;
        const i64 rows_r = std::min(m, e - r * m);
        pp.tasks.push_back(
            {r, r, t, rows_r, rows_r, !round.pair_tasks || r == 0});
        for (i64 i = r + 1; round.pair_tasks && i < qts; ++i)
          pp.tasks.push_back({r, i, t, rows_r, std::min(m, e - i * m), r == 0});
      }
    }
  };
  // Panels: the whole round when it fits the per-query width; otherwise
  // panel_cols slices of each slot.
  if (round.sample1 - round.sample0 <= round.panel_cols) {
    add_panel(round.sample0, round.sample1);
  } else {
    for (i64 g = round.sample0; g < round.sample1; g += slot)
      for (i64 p0 = g; p0 < g + slot; p0 += round.panel_cols)
        add_panel(p0, std::min(p0 + round.panel_cols, g + slot));
  }
  return plan;
}

}  // namespace parmvn::engine
