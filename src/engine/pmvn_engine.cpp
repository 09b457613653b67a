#include "engine/pmvn_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "common/aligned.hpp"
#include "common/contracts.hpp"
#include "common/fault.hpp"
#include "ep/ep_screen.hpp"
#include "common/timer.hpp"
#include "linalg/matrix.hpp"
#include "runtime/priority.hpp"

namespace parmvn::engine {

namespace {

// One column tile of the fused batch panel: a tile-width slice of one
// query's samples. Column tiles never straddle queries — that alignment is
// what makes batched arithmetic bitwise identical to single-query runs.
struct ColTile {
  i64 query = 0;    // index into the batch
  i64 sample0 = 0;  // global sample offset within that query's stream
  i64 col0 = 0;     // column offset inside the wide panel
  i64 width = 0;
  i64 extent = 0;   // the query's swept rows, [0, extent)
};

// Decision clearance: the interval mean +/- err lies entirely on one side
// of the threshold. A NaN threshold compares false on both sides, so
// "no decision" falls out without a separate flag.
bool clears_decision(double mean, double err, double decision) {
  return mean - err > decision || mean + err < decision;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// One tile row's M or Y panel of the sweep workspace (rows = samples,
// columns = the tile row's dimensions), 64-byte aligned. Its storage is
// never filled on the host — at crd sizes the panels run to hundreds of MB,
// and zeroing them there held every worker idle. The sweep's tasks write
// each tile before they read it, so the first touch happens in them. Debug
// builds fill it with quiet NaN instead, so a read before write poisons the
// results the bitwise engine tests compare (fresh pages read as zero and
// would hide it).
class Panel {
 public:
  Panel(i64 rows, i64 cols)
      : buf_(AlignedAllocator<double>().allocate(
            static_cast<std::size_t>(rows * cols))),
        rows_(rows),
        cols_(cols) {
#ifndef NDEBUG
    std::fill_n(buf_.get(), rows * cols,
                std::numeric_limits<double>::quiet_NaN());
#endif
  }

  [[nodiscard]] la::MatrixView view() const noexcept {
    return {buf_.get(), rows_, cols_, rows_};
  }

 private:
  struct Free {
    void operator()(double* ptr) const noexcept {
      AlignedAllocator<double>().deallocate(ptr, 0);
    }
  };
  std::unique_ptr<double[], Free> buf_;
  i64 rows_;
  i64 cols_;
};

// Shape and NaN check for every query of a batch, before any screen or
// sweep.
void check_limits(std::span<const LimitSet> queries, i64 n) {
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const LimitSet& ls = queries[q];
    PARMVN_EXPECTS(static_cast<i64>(ls.a.size()) == n);
    PARMVN_EXPECTS(static_cast<i64>(ls.b.size()) == n);
    expect_no_nan_limits("PmvnEngine: query " + std::to_string(q), ls.a, ls.b);
  }
}

}  // namespace

void EngineOptions::validate() const {
  const auto reject = [](const std::string& what) {
    throw Error("EngineOptions: " + what);
  };
  if (samples_per_shift < 1) reject("samples_per_shift must be >= 1");
  if (shifts < 1) reject("shifts must be >= 1");
  if (panel_bytes < 1) reject("panel_bytes must be >= 1");
  if (deadline_ms < 0) reject("deadline_ms must be >= 0");
  if (!(abs_tol >= 0.0) || !std::isfinite(abs_tol))
    reject("abs_tol must be finite and >= 0");
  if (!(ep_margin >= 0.0) || !std::isfinite(ep_margin))
    reject("ep_margin must be finite and >= 0");
  if (adaptive) {
    // The running estimate gates stop decisions, so at least two
    // (independent) blocks are required before the first check.
    if (shifts < 2) reject("adaptive evaluation requires shifts >= 2");
    if (min_shifts < 2 || min_shifts > shifts)
      reject("min_shifts must lie in [2, shifts]");
  }
}

PmvnEngine::PmvnEngine(rt::Runtime& rt,
                       std::shared_ptr<const CholeskyFactor> factor,
                       EngineOptions opts)
    : rt_(rt), factor_(std::move(factor)), opts_(opts) {
  PARMVN_EXPECTS(factor_ != nullptr);
  opts_.validate();
}

QueryResult PmvnEngine::evaluate_one(const LimitSet& query) const {
  std::vector<QueryResult> results = evaluate({&query, 1});
  return std::move(results.front());
}

std::vector<QueryResult> PmvnEngine::evaluate(
    std::span<const LimitSet> queries) const {
  // The whole evaluation (EP screens included — they precede the sweep's
  // submit…wait_all rounds) runs as one exclusive epoch, so host threads
  // sharing `rt_` can evaluate concurrently without racing submit() against
  // wait_all().
  const auto epoch = rt_.exclusive_epoch();
  check_limits(queries, factor_->dim());
  if (!opts_.tiered) return evaluate_qmc(queries);
  const i64 nq = static_cast<i64>(queries.size());
  if (nq == 0) return {};

  const WallTimer screen_timer;
  const double deadline_s = static_cast<double>(opts_.deadline_ms) / 1000.0;
  std::vector<QueryResult> results(static_cast<std::size_t>(nq));
  std::vector<char> retired(static_cast<std::size_t>(nq), 0);
  const double margin = opts_.ep_margin;
  // One screener for the whole batch: the O(nnz) factor-row flatten is
  // query-independent and dominates a single screen's cost at engine sizes.
  std::optional<ep::EpScreener> screener;

  for (i64 q = 0; q < nq; ++q) {
    // The deadline budget covers the screen tier too: once it expires, the
    // remaining queries skip their screens and face it again in the QMC
    // round loop (which always grants them one shift block).
    if (opts_.deadline_ms > 0 && screen_timer.seconds() >= deadline_s) break;
    const LimitSet& query = queries[static_cast<std::size_t>(q)];
    // Only queries carrying a decision threshold can be screened: without
    // one there is nothing for the EP band to decide, so the query goes
    // straight to QMC.
    if (std::isnan(query.decision)) continue;
    ep::EpResult er;
    try {
      if (!screener.has_value()) screener.emplace(factor_->backend());
      er = screener->screen(query.a, query.b);
    } catch (const std::exception&) {
      // A failed screen demotes the query to the authoritative QMC tier —
      // the screen only ever *skips* work, so its failure never aborts the
      // batch or the sibling screens.
      continue;
    }
    // A non-finite EP estimate cannot be trusted to clear anything: demote
    // to QMC rather than retire on garbage (the prefix walk below likewise
    // refuses non-finite rows, since NaN fails both clearance comparisons).
    if (!std::isfinite(er.logz)) continue;
    // Decision clearance against the EP band. Non-prefix: the scalar
    // probability must sit at least `margin` clear of the threshold.
    // Prefix: walk the (monotone non-increasing) curve; a row at least
    // `margin` below the threshold decides every later row at once, and
    // every row must be decided for the query to retire.
    const double decision = query.decision;
    bool decided;
    if (!query.prefix) {
      const double prob = std::exp(er.logz);
      decided = prob - margin > decision || prob + margin < decision;
    } else {
      decided = true;
      for (const double lz : er.prefix_logz) {
        const double prob = std::exp(lz);
        if (prob + margin < decision) break;  // monotone: rest decided
        if (!(prob - margin > decision)) {
          decided = false;
          break;
        }
      }
    }
    if (!decided) continue;
    QueryResult& res = results[static_cast<std::size_t>(q)];
    res.prob = std::exp(er.logz);
    res.error3sigma = margin;
    res.samples_used = 0;
    res.shifts_used = 0;
    res.converged = true;
    res.method = EvalMethod::kEp;
    if (query.prefix) {
      res.prefix_prob.reserve(er.prefix_logz.size());
      for (const double lz : er.prefix_logz)
        res.prefix_prob.push_back(std::exp(lz));
    }
    retired[static_cast<std::size_t>(q)] = 1;
  }
  const double screen_seconds = screen_timer.seconds();

  // Straddlers (and decision-free queries) run through the untiered QMC
  // sweep as a sub-batch; batch transparency makes their numbers bitwise
  // identical to the full untiered batch.
  std::vector<LimitSet> rest;
  std::vector<i64> rest_idx;
  for (i64 q = 0; q < nq; ++q)
    if (retired[static_cast<std::size_t>(q)] == 0) {
      rest.push_back(queries[static_cast<std::size_t>(q)]);
      rest_idx.push_back(q);
    }
  if (!rest.empty()) {
    std::vector<QueryResult> sub = evaluate_qmc(rest, screen_seconds);
    for (std::size_t i = 0; i < rest_idx.size(); ++i)
      results[static_cast<std::size_t>(rest_idx[i])] = std::move(sub[i]);
  }
  for (i64 q = 0; q < nq; ++q)
    if (retired[static_cast<std::size_t>(q)] != 0)
      results[static_cast<std::size_t>(q)].seconds = screen_seconds;
  return results;
}

std::vector<QueryResult> PmvnEngine::evaluate_qmc(
    std::span<const LimitSet> queries, double elapsed_s) const {
  const WallTimer timer;
  const CholeskyFactor& f = *factor_;
  // The sweep's tasks reach the factor through its backend; the engine's
  // factor_ keeps it alive until every task has run.
  const FactorBackend* const fb = &f.backend();
  const i64 n = f.dim();
  const i64 m = f.tile_size();
  const i64 nq = static_cast<i64>(queries.size());
  if (nq == 0) return {};
  // Cross-tile contributions: per-pair update tasks, or folded into the
  // chain task (engine/factor_backend.hpp).
  const bool pair_tasks = fb->pair_update_tasks();

  // Where each query's limits constrain anything: extent[q] is 1 + the last
  // row with a > -inf or b < +inf, floored at 1 (row 0 is always swept).
  // Unconstrained rows multiply every sample's probability by exactly
  // Phi(+inf) - Phi(-inf) == 1.0, so the sweep skips them (see sweep_range).
  std::vector<i64> extent(static_cast<std::size_t>(nq), 0);
  for (i64 q = 0; q < nq; ++q) {
    const LimitSet& ls = queries[static_cast<std::size_t>(q)];
    i64 e = n;
    while (e > 1 && ls.a[static_cast<std::size_t>(e - 1)] == -kInf &&
           ls.b[static_cast<std::size_t>(e - 1)] == kInf)
      --e;
    extent[static_cast<std::size_t>(q)] = e;
  }
  const i64 sps = opts_.samples_per_shift;

  // Prefix slots: a stop can happen between rounds only on the adaptive and
  // deadline paths, so there each shift block keeps its own slot (n rows)
  // of prefix sums; otherwise the whole budget is one slot. Slots are
  // folded in ascending order, and column tiles never straddle a slot, so
  // how the rounds partition the shifts moves no bit (see the round loop).
  const bool stepped = opts_.adaptive || opts_.deadline_ms > 0;
  const int slot_shifts = stepped ? 1 : opts_.shifts;
  const int slots = opts_.shifts / slot_shifts;
  const i64 slot_samples = slot_shifts * sps;

  // One deterministic point set per query, keyed by the query's seed.
  std::vector<stats::PointSet> pts;
  pts.reserve(static_cast<std::size_t>(nq));
  for (const LimitSet& q : queries)
    pts.emplace_back(opts_.sampler, n, sps, opts_.shifts, q.seed);

  std::vector<std::vector<double>> p(static_cast<std::size_t>(nq));
  for (auto& pq : p)
    pq.assign(static_cast<std::size_t>(opts_.total_samples()), 1.0);

  std::vector<std::vector<double>> prefix_store(static_cast<std::size_t>(nq));
  for (i64 q = 0; q < nq; ++q)
    if (queries[static_cast<std::size_t>(q)].prefix)
      prefix_store[static_cast<std::size_t>(q)].assign(
          static_cast<std::size_t>(n * slots), 0.0);

  // The panel workspace, allocated by the first panel and reused by the
  // rest: per swept tile row r a mean panel M (the external conditional
  // mean) and a conditioning panel Y, each cap[r] samples tall and
  // sample-contiguous (rows = samples of the whole batch, columns = the
  // tile row's dimensions — the layout the QMC kernel sweeps), plus one
  // length-n prefix accumulator per column tile. Tile row r's panels hold
  // only the column tiles that reach it (see the tile map below), so rows
  // past the shorter queries' extents stay narrow. A later panel
  // reallocates only if it needs more: fewer active queries may each get
  // wider panels. M and Y are never filled on the host (see Panel): the
  // tasks of every panel write each tile before they read it.
  std::vector<Panel> M, Y;
  std::vector<la::ConstMatrixView> yall;  // Y's views, for folded backends
  std::vector<std::vector<double>> prefix_acc;
  std::vector<i64> cap;

  std::vector<rt::DataAccess> accesses;  // reused across submits

  // One fused sweep of the sample range [s_begin, s_end) (whole prefix
  // slots) for the queries in `active`. Per-sample probability products
  // land in p[q]; each column tile's prefix sums land in its own slot of
  // prefix_store[q].
  const auto sweep_range = [&](std::span<const i64> active, i64 s_begin,
                               i64 s_end) {
    const i64 nact = static_cast<i64>(active.size());
    // Each query sweeps only its own rows [0, e) with e = extent[q]: its
    // column tiles get tasks on tile rows r < ceil(e / m) alone, and on the
    // last of them the chain step and the updates into it cover rows < e
    // only (swept_rows). Rows past e stay untouched — their factors are
    // exactly 1, so they change no probability and no prefix sum (the
    // prefix fold below fills them from row e - 1). The workspace holds
    // tile rows [0, mts), those of the active query with the largest e.
    const auto row_tiles_of = [m](i64 e) { return (e + m - 1) / m; };
    const auto swept_rows = [m](i64 e, i64 r) {
      return std::min(m, e - r * m);
    };
    i64 mts = 0;
    for (const i64 q : active)
      mts = std::max(mts, row_tiles_of(extent[static_cast<std::size_t>(q)]));
    // Per-query panel width: the sweep shares the panel budget, counted as
    // 2 matrices (M, Y) of n rows, 8 bytes each — an upper bound, since rows
    // past the extent get no panels. Floored at one tile width per query and
    // rounded to a tile multiple. For a 1-element batch this reproduces the
    // single-query decomposition exactly; panelling is exact regardless
    // (sample columns are independent chains, and column-tile boundaries
    // fall at tile multiples for every panel width).
    i64 panel_cols = opts_.panel_bytes / (2 * 8 * n * nact);
    panel_cols = std::max(panel_cols, m);
    panel_cols = (panel_cols / m) * m;

    // Panels: the whole range when it fits the budget; otherwise panel_cols
    // slices of each slot, the cuts a one-slot round makes.
    std::vector<std::pair<i64, i64>> panels;
    if (s_end - s_begin <= panel_cols) {
      panels.emplace_back(s_begin, s_end);
    } else {
      for (i64 g = s_begin; g < s_end; g += slot_samples)
        for (i64 p0 = g; p0 < g + slot_samples; p0 += panel_cols)
          panels.emplace_back(p0, std::min(p0 + panel_cols, g + slot_samples));
    }

    for (const auto& [panel0, panel1] : panels) {
      // Column-tile map for this panel: every active query contributes the
      // same sample range [panel0, panel1), sliced into tile-width columns
      // that restart at every slot boundary. Tiles are then stably sorted
      // by descending extent and packed in that order, so the tiles that
      // reach tile row r are the leading ones and row r's panels need only
      // their columns; each query's tiles stay contiguous and in ascending
      // sample order.
      std::vector<ColTile> tiles;
      for (const i64 q : active) {
        for (i64 c = panel0; c < panel1;) {
          const i64 slot_end = (c / slot_samples + 1) * slot_samples;
          const i64 w = std::min({m, slot_end - c, panel1 - c});
          tiles.push_back({q, c, 0, w, extent[static_cast<std::size_t>(q)]});
          c += w;
        }
      }
      std::stable_sort(tiles.begin(), tiles.end(),
                       [](const ColTile& x, const ColTile& y) {
                         return x.extent > y.extent;
                       });
      std::vector<i64> need(static_cast<std::size_t>(mts), 0);
      i64 width = 0;
      for (ColTile& ct : tiles) {
        ct.col0 = width;
        width += ct.width;
        for (i64 r = 0; r < row_tiles_of(ct.extent); ++r)
          need[static_cast<std::size_t>(r)] = width;
      }
      const i64 nct = static_cast<i64>(tiles.size());

      // The active set only shrinks, so no later panel sweeps more tile rows.
      bool grow = mts > static_cast<i64>(M.size());
      for (i64 r = 0; r < mts && !grow; ++r)
        grow = need[static_cast<std::size_t>(r)] >
               cap[static_cast<std::size_t>(r)];
      if (grow) {
        cap.resize(static_cast<std::size_t>(mts), 0);
        M.clear();
        Y.clear();
        yall.clear();
        for (i64 r = 0; r < mts; ++r) {
          i64& cr = cap[static_cast<std::size_t>(r)];
          cr = std::max(cr, need[static_cast<std::size_t>(r)]);
          M.emplace_back(cr, f.tile_rows(r));
          Y.emplace_back(cr, f.tile_rows(r));
          yall.push_back(Y.back().view());
        }
      }
      if (nct > static_cast<i64>(prefix_acc.size()))
        prefix_acc.resize(static_cast<std::size_t>(nct));
      for (i64 t = 0; t < nct; ++t) {
        const i64 q = tiles[static_cast<std::size_t>(t)].query;
        if (queries[static_cast<std::size_t>(q)].prefix)
          prefix_acc[static_cast<std::size_t>(t)].assign(
              static_cast<std::size_t>(n), 0.0);
      }

      // Handle registration happens inside the try below so that a failure
      // in register_data itself (e.g. bad_alloc growing the runtime's handle
      // table) still reaches release_handles for the handles already taken.
      // The vectors are reserved up front, so push_back never throws and
      // every registered handle is recorded. M and Y of one (row, column
      // tile) share one handle; only per-pair update tasks need them.
      std::vector<rt::DataHandle> panel_handles;
      panel_handles.reserve(static_cast<std::size_t>(mts * nct));
      const auto handle = [&](i64 r, i64 t) {
        return panel_handles[static_cast<std::size_t>(r * nct + t)];
      };
      // Per-column-tile probability products (and prefix accumulators) are
      // written by every tile row's QMC task; their own handle serialises
      // that chain (for folded backends, the only dependency there is).
      std::vector<rt::DataHandle> p_handles;
      p_handles.reserve(static_cast<std::size_t>(nct));

      // The panel's handles must go back to the runtime on every
      // exit path (a long-lived serving runtime's handle table stays
      // bounded), and may only be released once the epoch has drained —
      // wait_all() drains before rethrowing a task error, and the catch
      // below drains first when a submit itself throws (e.g. handle
      // validation) with earlier tasks still in flight.
      const auto release_handles = [&] {
        for (const rt::DataHandle h : panel_handles) rt_.release_data(h);
        for (const rt::DataHandle h : p_handles) rt_.release_data(h);
      };
      try {
        if (pair_tasks)
          for (i64 k = 0; k < mts * nct; ++k) {
            PARMVN_FAULT_POINT("engine.register");
            panel_handles.push_back(rt_.register_data());
          }
        for (i64 t = 0; t < nct; ++t) p_handles.push_back(rt_.register_data());

        // The sweep: one independent pipeline per column tile. Tile row r's
        // QMC task on column tile t, then (per-pair backends) one update
        // task per later tile row i of its query, M_i += Y_r L_ir^T on that
        // column tile alone, so tile row r+1 of column tile t waits only for
        // its own updates, never for a slower sibling tile. Per-sample GEMM
        // rows do not depend on the panel height (Gemm.RowsBitwiseIndepend-
        // entOfPanelHeight), and every output entry's sum runs over the
        // same k whatever the number of output columns, so neither the
        // column tiling nor the narrowed last tile row moves a result bit.
        // The mean tile's first writer zeroes it: the QMC task on tile row
        // 0 (and on every tile row for folded backends, whose external
        // terms accumulate into it in the same task); the (i, 0) update on
        // the other tile rows, which overwrites it (beta = 0).
        const std::span<const la::ConstMatrixView> ys = yall;
        for (i64 r = 0; r < mts; ++r) {
          const i64 row0 = r * m;
          for (i64 t = 0; t < nct; ++t) {
            const ColTile& ct = tiles[static_cast<std::size_t>(t)];
            const i64 qts = row_tiles_of(ct.extent);
            if (r >= qts) continue;
            const i64 mr = swept_rows(ct.extent, r);
            const la::MatrixView mtile =
                M[static_cast<std::size_t>(r)].view().sub(ct.col0, 0, ct.width,
                                                          mr);
            const la::MatrixView yt =
                Y[static_cast<std::size_t>(r)].view().sub(ct.col0, 0, ct.width,
                                                          mr);
            const stats::PointSet* ps =
                &pts[static_cast<std::size_t>(ct.query)];
            double* pk =
                p[static_cast<std::size_t>(ct.query)].data() + ct.sample0;
            const LimitSet& q = queries[static_cast<std::size_t>(ct.query)];
            double* acc = q.prefix
                              ? prefix_acc[static_cast<std::size_t>(t)].data() +
                                    row0
                              : nullptr;
            const std::span<const double> qa = q.a.subspan(
                static_cast<std::size_t>(row0), static_cast<std::size_t>(mr));
            const std::span<const double> qb = q.b.subspan(
                static_cast<std::size_t>(row0), static_cast<std::size_t>(mr));
            const i64 sample0 = ct.sample0;
            const i64 col0 = ct.col0;
            const i64 cw = ct.width;
            const bool zero_mean = !pair_tasks || r == 0;
            accesses.clear();
            if (pair_tasks)
              accesses.push_back({handle(r, t), rt::Access::kReadWrite});
            accesses.push_back({p_handles[static_cast<std::size_t>(t)],
                                rt::Access::kReadWrite});
            rt_.submit("qmc", accesses,
                       [fb, pair_tasks, zero_mean, r, ps, sample0, qa, qb,
                        mtile, yt, pk, acc, ys, col0, cw] {
                         PARMVN_FAULT_POINT("engine.qmc");
                         if (zero_mean)
                           for (i64 c = 0; c < mtile.cols; ++c)
                             std::fill_n(mtile.col(c), mtile.rows, 0.0);
                         // Folded backends read earlier Y tiles of the same
                         // column tile, completed by this chain.
                         if (!pair_tasks)
                           fb->accumulate_external(r, ys, col0, cw, mtile);
                         fb->chain_step(r, *ps, sample0, qa, qb, mtile, yt, pk,
                                        acc);
                       },
                       rt::kPrioSweep);
            for (i64 i = r + 1; pair_tasks && i < qts; ++i) {
              const la::MatrixView mi = M[static_cast<std::size_t>(i)].view();
              const la::MatrixView mw =
                  mi.sub(ct.col0, 0, ct.width, swept_rows(ct.extent, i));
              accesses.clear();
              accesses.push_back({handle(r, t), rt::Access::kRead});
              accesses.push_back({handle(i, t), rt::Access::kReadWrite});
              // Host-side submit failure with earlier tasks already in
              // flight: the catch below must drain them before releasing
              // handles.
              PARMVN_FAULT_POINT("engine.submit");
              // The i == r+1 update feeds the next tile row's QMC task
              // directly — the sweep's critical path — so it shares the QMC
              // lane; the remaining updates trail (same weighting as the
              // factorizations, see runtime/priority.hpp).
              const double beta = r == 0 ? 0.0 : 1.0;
              rt_.submit("pmvn_update", accesses,
                         [fb, i, r, yt, mw, beta] {
                           fb->apply_update(i, r, yt, mw, beta);
                         },
                         i == r + 1 ? rt::kPrioSweep : rt::kPrioUpdate);
            }
          }
        }
        rt_.wait_all();
      } catch (...) {
        // Drain whatever was already submitted (swallowing any secondary
        // task error — the original exception is what propagates), then
        // release.
        try {
          rt_.wait_all();
        } catch (...) {  // NOLINT(bugprone-empty-catch)
        }
        release_handles();
        throw;
      }

      // Fold this panel's prefix sums into each tile's own slot, in
      // ascending column-tile (== ascending sample, per query) order so the
      // accumulation order is independent of the panelling and of how the
      // rounds partition the shifts. Rows past the query's extent hold the
      // same running products as its last swept row, so their per-tile sums
      // are that row's sum, bit for bit.
      for (i64 t = 0; t < nct; ++t) {
        const ColTile& ct = tiles[static_cast<std::size_t>(t)];
        const i64 q = ct.query;
        if (!queries[static_cast<std::size_t>(q)].prefix) continue;
        std::vector<double>& acc = prefix_acc[static_cast<std::size_t>(t)];
        std::fill(acc.begin() + ct.extent, acc.end(),
                  acc[static_cast<std::size_t>(ct.extent - 1)]);
        double* total = prefix_store[static_cast<std::size_t>(q)].data() +
                        ct.sample0 / slot_samples * n;
        for (i64 i = 0; i < n; ++i) total[i] += acc[static_cast<std::size_t>(i)];
      }
      release_handles();
    }
  };

  // Block estimate over the first `done` shifts of query q.
  const auto block_estimate = [&](i64 q, int done) {
    const std::vector<double>& pq = p[static_cast<std::size_t>(q)];
    std::vector<double> means(static_cast<std::size_t>(done), 0.0);
    for (i64 s = 0; s < static_cast<i64>(done) * sps; ++s)
      means[static_cast<std::size_t>(
          pts[static_cast<std::size_t>(q)].shift_of(s))] +=
          pq[static_cast<std::size_t>(s)];
    for (double& mean : means) mean /= static_cast<double>(sps);
    return stats::combine_block_means(means);
  };

  // A prefix query retires only when every prefix row meets the budget or
  // clears the decision — the confidence-region envelope is a running min
  // of these rows, so row-wise clearance implies the envelope's side cannot
  // flip with more samples inside the error model. The true prefix sequence
  // is non-increasing (each SOV factor is a probability in [0,1]), so the
  // first row whose interval lies cleanly *below* the decision decides
  // every later row at once. On the adaptive path each shift block has
  // its own slot (slot s holds shift s), whichever round swept it.
  const auto prefix_decided = [&](i64 q, int done) {
    const double decision = queries[static_cast<std::size_t>(q)].decision;
    const std::vector<double>& store =
        prefix_store[static_cast<std::size_t>(q)];
    for (i64 i = 0; i < n; ++i) {
      std::vector<double> means(static_cast<std::size_t>(done), 0.0);
      for (int s = 0; s < done; ++s)
        means[static_cast<std::size_t>(s)] =
            store[static_cast<std::size_t>(static_cast<i64>(s) * n + i)] /
            static_cast<double>(sps);
      const stats::BlockEstimate est = stats::combine_block_means(means);
      if (est.mean + est.error3sigma < decision) return true;
      const bool ok =
          (opts_.abs_tol > 0.0 && est.error3sigma <= opts_.abs_tol) ||
          (est.mean - est.error3sigma > decision);
      if (!ok) return false;
    }
    return true;
  };

  // The round loop, across the still-active queries, retiring each query
  // independently once its criterion is met — error3sigma <= abs_tol, or
  // the decision threshold cleanly cleared (adaptive only) — or en masse
  // when the deadline expires. All stop decisions run here on the host
  // thread from deterministic block sums, so the adaptive round schedule
  // (and therefore every result bit) is identical across worker counts;
  // deadline stops are time-dependent and exempt (see ROADMAP). The fixed
  // budget is one round. The adaptive path checks nothing before
  // min_shifts blocks, so its first round sweeps those blocks as one fused
  // pass (one wait for the workers instead of min_shifts) and every later
  // round one block; a deadline-only run sweeps one block per round.
  // Column tiles and prefix slots do not depend on the round boundaries,
  // so neither does any result bit.
  const bool deadline_on = opts_.deadline_ms > 0;
  const double deadline_s = static_cast<double>(opts_.deadline_ms) / 1000.0;
  std::vector<i64> active(static_cast<std::size_t>(nq));
  std::iota(active.begin(), active.end(), i64{0});
  std::vector<int> shifts_done(static_cast<std::size_t>(nq), 0);
  std::vector<char> converged(static_cast<std::size_t>(nq), 0);
  std::vector<char> deadline_hit(static_cast<std::size_t>(nq), 0);

  int swept = 0;  // shift blocks behind every still-active query
  for (int round = 0; !active.empty(); ++round) {
    // Deadline check between rounds — but only after the first round, so
    // every query retires with at least one shift block (min_shifts on the
    // adaptive path) behind its estimate (a deadline result is a partial
    // answer, never an empty one).
    if (deadline_on && round > 0 && timer.seconds() + elapsed_s >= deadline_s) {
      for (const i64 qi : active)
        deadline_hit[static_cast<std::size_t>(qi)] = 1;
      break;
    }
    const int round_shifts =
        !stepped ? opts_.shifts
                 : (opts_.adaptive && round == 0 ? opts_.min_shifts : 1);
    const i64 s_begin = static_cast<i64>(swept) * sps;
    sweep_range(active, s_begin, s_begin + round_shifts * sps);
    swept += round_shifts;
    std::vector<i64> still;
    still.reserve(active.size());
    for (const i64 qi : active) {
      shifts_done[static_cast<std::size_t>(qi)] += round_shifts;
      const int done = shifts_done[static_cast<std::size_t>(qi)];
      // Early-stop checks belong to adaptive mode only: a deadline-bounded
      // fixed-budget run sweeps every block the clock allows.
      if (opts_.adaptive && done >= opts_.min_shifts) {
        bool stop;
        if (queries[static_cast<std::size_t>(qi)].prefix) {
          stop = prefix_decided(qi, done);
        } else {
          const stats::BlockEstimate est = block_estimate(qi, done);
          stop = (opts_.abs_tol > 0.0 && est.error3sigma <= opts_.abs_tol) ||
                 clears_decision(est.mean, est.error3sigma,
                                 queries[static_cast<std::size_t>(qi)].decision);
        }
        if (stop) {
          converged[static_cast<std::size_t>(qi)] = 1;
          continue;
        }
      }
      if (done < opts_.shifts) still.push_back(qi);
    }
    active = std::move(still);
  }

  const double batch_seconds = timer.seconds();
  std::vector<QueryResult> results(static_cast<std::size_t>(nq));
  for (i64 q = 0; q < nq; ++q) {
    const int done = shifts_done[static_cast<std::size_t>(q)];
    const stats::BlockEstimate est = block_estimate(q, done);
    QueryResult& res = results[static_cast<std::size_t>(q)];
    res.prob = est.mean;
    res.error3sigma = est.error3sigma;
    res.seconds = batch_seconds;
    res.samples_used = static_cast<i64>(done) * sps;
    res.shifts_used = done;
    res.converged = converged[static_cast<std::size_t>(q)] != 0;
    res.method = deadline_hit[static_cast<std::size_t>(q)] != 0
                     ? EvalMethod::kDeadline
                     : EvalMethod::kQmc;
    if (queries[static_cast<std::size_t>(q)].prefix) {
      // Fold the prefix slots in ascending order, then normalise by
      // the samples this query actually evaluated.
      res.prefix_prob.assign(static_cast<std::size_t>(n), 0.0);
      const std::vector<double>& store =
          prefix_store[static_cast<std::size_t>(q)];
      for (int slot = 0; slot < done / slot_shifts; ++slot)
        for (i64 i = 0; i < n; ++i)
          res.prefix_prob[static_cast<std::size_t>(i)] +=
              store[static_cast<std::size_t>(static_cast<i64>(slot) * n + i)];
      const double inv = 1.0 / static_cast<double>(res.samples_used);
      for (double& v : res.prefix_prob) v *= inv;
    }
  }
  return results;
}

}  // namespace parmvn::engine
