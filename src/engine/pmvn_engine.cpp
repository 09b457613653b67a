#include "engine/pmvn_engine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "common/aligned.hpp"
#include "common/contracts.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "engine/sweep_plan.hpp"
#include "ep/ep_screen.hpp"
#include "linalg/matrix.hpp"
#include "runtime/priority.hpp"

namespace parmvn::engine {

namespace {

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

// Where a query's limits constrain anything: 1 + the last row with
// a > -inf or b < +inf, floored at 1 (row 0 is always swept). Unconstrained
// rows multiply every sample's probability by exactly
// Phi(+inf) - Phi(-inf) == 1.0, so the sweep skips them (the plan's
// extents).
i64 constrained_extent(const LimitSet& ls) {
  i64 e = static_cast<i64>(ls.a.size());
  while (e > 1 && ls.a[e - 1] == -kInf && ls.b[e - 1] == kInf) --e;
  return e;
}

// A query the QMC tier sweeps: its deterministic point set, keyed by the
// query's seed, its per-sample probability products and, for a prefix
// query, one length-n row of prefix sums per slot. A query the EP tier
// retired gets none of these.
struct QmcQuery {
  i64 index = 0;  // position in the batch
  const LimitSet* ls = nullptr;
  stats::PointSet pts;
  std::vector<double> p;
  std::vector<double> prefix_store;
  int done = 0;  // shift blocks swept
};

// The panel workspace, allocated by the first panel and reused by the
// rest: per swept tile row r a mean panel M (the external conditional mean)
// and a conditioning panel Y, each cap[r] >= row_width[r] samples tall,
// plus one length-n prefix accumulator per column tile. A later panel
// reallocates only if it needs more: fewer active queries may each get
// wider panels.
struct Workspace {
  std::vector<Panel> M, Y;
  std::vector<la::ConstMatrixView> yall;  // Y's views, for folded backends
  std::vector<std::vector<double>> prefix_acc;
  std::vector<i64> cap;
  std::vector<rt::DataAccess> accesses;  // reused across submits

  void fit(const PanelPlan& plan, const CholeskyFactor& f) {
    const std::vector<i64>& need = plan.row_width;
    // The active set only shrinks, so no later panel sweeps more tile rows.
    if (need.size() <= M.size() &&
        std::equal(need.begin(), need.end(), cap.begin(), std::less_equal<>()))
      return;
    cap.resize(need.size(), 0);
    M.clear();
    Y.clear();
    yall.clear();
    for (std::size_t r = 0; r < need.size(); ++r) {
      cap[r] = std::max(cap[r], need[r]);
      M.emplace_back(cap[r], f.tile_rows(static_cast<i64>(r)));
      Y.emplace_back(cap[r], f.tile_rows(static_cast<i64>(r)));
      yall.push_back(Y.back().view());
    }
  }
};

// Runs one panel of a round's plan: submits its tasks in plan order, waits
// for them, and folds the panel's prefix sums into their slots.
void run_panel(rt::Runtime& rt, const CholeskyFactor& f,
               const PanelPlan& plan, std::vector<QmcQuery>& qs,
               Workspace& ws) {
  // The sweep's tasks reach the factor through its backend; the engine's
  // factor_ keeps it alive until every task has run.
  const FactorBackend* const fb = &f.backend();
  const bool pair_tasks = fb->pair_update_tasks();
  const i64 n = f.dim();
  const i64 m = f.tile_size();
  const i64 mts = static_cast<i64>(plan.row_width.size());
  const i64 nct = static_cast<i64>(plan.tiles.size());
  const auto query_of = [&](i64 t) -> QmcQuery& {
    return qs[static_cast<std::size_t>(
        plan.tiles[static_cast<std::size_t>(t)].query)];
  };
  ws.fit(plan, f);
  ws.prefix_acc.resize(std::max(ws.prefix_acc.size(), plan.tiles.size()));
  for (i64 t = 0; t < nct; ++t)
    if (query_of(t).ls->prefix) ws.prefix_acc[t].assign(n, 0.0);

  // Handle registration happens inside the try below so that a failure in
  // register_data itself (e.g. bad_alloc growing the runtime's handle
  // table) still reaches release_handles for the handles already taken.
  // The vector is reserved up front, so push_back never throws and every
  // registered handle is recorded. First come the (row, column tile)
  // handles, each shared by that M and Y tile, which only per-pair update
  // tasks need; then one per column tile for its probability products (and
  // prefix accumulator), written by every tile row's QMC task, which
  // serialises that chain (for folded backends, the only dependency there
  // is).
  const i64 npanel = pair_tasks ? mts * nct : 0;
  std::vector<rt::DataHandle> handles;
  handles.reserve(static_cast<std::size_t>(npanel + nct));
  const auto handle = [&](i64 k) {
    return handles[static_cast<std::size_t>(k)];
  };

  // The panel's handles must go back to the runtime on every exit path (a
  // long-lived serving runtime's handle table stays bounded), and may only
  // be released once the epoch has drained — wait_all() drains before
  // rethrowing a task error, and the catch below drains first when a submit
  // itself throws (e.g. handle validation) with earlier tasks still in
  // flight.
  const auto release_handles = [&] {
    for (const rt::DataHandle h : handles) rt.release_data(h);
  };
  try {
    for (i64 k = 0; k < npanel; ++k) {
      PARMVN_FAULT_POINT("engine.register");
      handles.push_back(rt.register_data());
    }
    for (i64 t = 0; t < nct; ++t) handles.push_back(rt.register_data());

    // Per-sample GEMM rows do not depend on the panel height
    // (Gemm.RowsBitwiseIndependentOfPanelHeight), and every output entry's
    // sum runs over the same k whatever the number of output columns, so
    // neither the column tiling nor the narrowed last tile row moves a
    // result bit.
    const std::span<const la::ConstMatrixView> ys = ws.yall;
    for (const SweepTask& task : plan.tasks) {
      const i64 r = task.r;
      const i64 i = task.i;
      const i64 t = task.tile;
      const ColTile& ct = plan.tiles[static_cast<std::size_t>(t)];
      const la::MatrixView yt = ws.Y[static_cast<std::size_t>(r)].view().sub(
          ct.col0, 0, ct.width, task.rows_r);
      const la::MatrixView mt = ws.M[static_cast<std::size_t>(i)].view().sub(
          ct.col0, 0, ct.width, task.rows_i);
      ws.accesses.clear();
      if (task.qmc()) {
        QmcQuery* qq = &query_of(t);
        double* acc =
            qq->ls->prefix
                ? ws.prefix_acc[static_cast<std::size_t>(t)].data() + r * m
                : nullptr;
        if (pair_tasks)
          ws.accesses.push_back({handle(r * nct + t), rt::Access::kReadWrite});
        ws.accesses.push_back({handle(npanel + t), rt::Access::kReadWrite});
        rt.submit("qmc", ws.accesses,
                  [fb, pair_tasks, task, ct, qq, m, mt, yt, acc, ys] {
                    PARMVN_FAULT_POINT("engine.qmc");
                    if (task.first)
                      for (i64 c = 0; c < mt.cols; ++c)
                        std::fill_n(mt.col(c), mt.rows, 0.0);
                    // Folded backends read earlier Y tiles of the same
                    // column tile, completed by this chain.
                    if (!pair_tasks)
                      fb->accumulate_external(task.r, ys, ct.col0, ct.width,
                                              mt);
                    const auto rows = [&](std::span<const double> lim) {
                      return lim.subspan(static_cast<std::size_t>(task.r * m),
                                         static_cast<std::size_t>(task.rows_r));
                    };
                    fb->chain_step(task.r, qq->pts, ct.sample0,
                                   rows(qq->ls->a), rows(qq->ls->b), mt, yt,
                                   qq->p.data() + ct.sample0, acc);
                  },
                  rt::kPrioSweep);
      } else {
        ws.accesses.push_back({handle(r * nct + t), rt::Access::kRead});
        ws.accesses.push_back({handle(i * nct + t), rt::Access::kReadWrite});
        // Host-side submit failure with earlier tasks already in flight:
        // the catch below must drain them before releasing handles.
        PARMVN_FAULT_POINT("engine.submit");
        // The i == r+1 update feeds the next tile row's QMC task directly —
        // the sweep's critical path — so it shares the QMC lane; the
        // remaining updates trail (same weighting as the factorizations,
        // see runtime/priority.hpp).
        const double beta = task.first ? 0.0 : 1.0;
        rt.submit("pmvn_update", ws.accesses,
                  [fb, i, r, yt, mt, beta] {
                    fb->apply_update(i, r, yt, mt, beta);
                  },
                  i == r + 1 ? rt::kPrioSweep : rt::kPrioUpdate);
      }
    }
    rt.wait_all();
  } catch (...) {
    // Drain whatever was already submitted (swallowing any secondary task
    // error — the original exception is what propagates), then release.
    try {
      rt.wait_all();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    release_handles();
    throw;
  }

  // Fold this panel's prefix sums into each tile's own slot, in ascending
  // column-tile (== ascending sample, per query) order so the accumulation
  // order is independent of the panelling and of how the rounds partition
  // the shifts. Rows past the query's extent hold the same running products
  // as its last swept row, so their per-tile sums are that row's sum, bit
  // for bit.
  for (i64 t = 0; t < nct; ++t) {
    const ColTile& ct = plan.tiles[static_cast<std::size_t>(t)];
    QmcQuery& qq = query_of(t);
    if (!qq.ls->prefix) continue;
    std::vector<double>& acc = ws.prefix_acc[static_cast<std::size_t>(t)];
    std::fill(acc.begin() + ct.extent, acc.end(),
              acc[static_cast<std::size_t>(ct.extent - 1)]);
    double* total = qq.prefix_store.data() + ct.slot * n;
    for (i64 k = 0; k < n; ++k) total[k] += acc[static_cast<std::size_t>(k)];
  }
  release_handles();
}

// The EP tier: screens every query carrying a decision threshold on the
// host thread and retires, with method kEp, each one whose threshold lies
// at least ep_margin clear of the EP estimate (prefix rows through the
// shared monotone shortcut, decision_settled with abs_tol = 0).
void screen_tier(const FactorBackend& fb, std::span<const LimitSet> queries,
                 const EngineOptions& opts, const WallTimer& timer,
                 std::vector<QueryResult>& results) {
  const double deadline_s = static_cast<double>(opts.deadline_ms) / 1000.0;
  const double margin = opts.ep_margin;
  // One screener for the whole batch: the O(nnz) factor-row flatten is
  // query-independent and dominates a single screen's cost at engine sizes.
  std::optional<ep::EpScreener> screener;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    // The deadline budget covers the screen tier too: once it expires, the
    // remaining queries skip their screens and face it again in the QMC
    // round loop (which always grants them one round).
    if (opts.deadline_ms > 0 && timer.seconds() >= deadline_s) break;
    const LimitSet& query = queries[q];
    // Without a decision threshold there is nothing for the EP band to
    // decide, so the query goes straight to QMC.
    if (std::isnan(query.decision)) continue;
    ep::EpResult er;
    try {
      if (!screener.has_value()) screener.emplace(fb);
      er = screener->screen(query.a, query.b);
    } catch (const std::exception&) {
      // A failed screen demotes the query to the authoritative QMC tier —
      // the screen only ever *skips* work, so its failure never aborts the
      // batch or the sibling screens.
      continue;
    }
    // A non-finite EP estimate cannot be trusted to clear anything: demote
    // to QMC rather than retire on garbage (a non-finite prefix row fails
    // both clearance comparisons, so the walk refuses it likewise).
    if (!std::isfinite(er.logz)) continue;
    const std::span<const double> curve =
        query.prefix ? std::span<const double>(er.prefix_logz)
                     : std::span<const double>(&er.logz, 1);
    if (!decision_settled(static_cast<i64>(curve.size()), query.decision, 0.0,
                          [&](i64 i) {
                            return stats::BlockEstimate{
                                std::exp(curve[static_cast<std::size_t>(i)]),
                                margin};
                          }))
      continue;
    QueryResult& res = results[q];
    res.prob = std::exp(er.logz);
    res.error3sigma = margin;  // samples_used and shifts_used stay 0
    res.converged = true;
    res.method = EvalMethod::kEp;
    if (query.prefix)
      for (const double lz : er.prefix_logz)
        res.prefix_prob.push_back(std::exp(lz));
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
  const CholeskyFactor& f = *factor_;
  const i64 n = f.dim();
  check_limits(queries, n);
  const i64 nq = static_cast<i64>(queries.size());
  if (nq == 0) return {};
  // One clock for the whole batch: the deadline budget covers the EP
  // screens too, and every result reports it.
  const WallTimer timer;
  std::vector<QueryResult> results(static_cast<std::size_t>(nq));
  if (opts_.tiered) screen_tier(f.backend(), queries, opts_, timer, results);

  // Prefix slots: a stop can happen between rounds only on the adaptive and
  // deadline paths, so there each shift block keeps its own slot (n rows)
  // of prefix sums; otherwise the whole budget is one slot. Slots are
  // folded in ascending order, and column tiles never straddle a slot, so
  // how the rounds partition the shifts moves no bit.
  const i64 sps = opts_.samples_per_shift;
  const bool deadline_on = opts_.deadline_ms > 0;
  const bool stepped = opts_.adaptive || deadline_on;
  const int slot_shifts = stepped ? 1 : opts_.shifts;
  const int slots = opts_.shifts / slot_shifts;

  // Straddlers and decision-free queries enter the sweep; a query the EP
  // tier retired never does. Batch transparency makes their numbers
  // bitwise those of the untiered batch.
  std::vector<QmcQuery> qs;
  std::vector<i64> extent;
  for (i64 q = 0; q < nq; ++q) {
    if (results[static_cast<std::size_t>(q)].method == EvalMethod::kEp)
      continue;
    const LimitSet& ls = queries[static_cast<std::size_t>(q)];
    qs.push_back({q, &ls,
                  stats::PointSet(opts_.sampler, n, sps, opts_.shifts, ls.seed),
                  std::vector<double>(
                      static_cast<std::size_t>(opts_.total_samples()), 1.0),
                  ls.prefix ? std::vector<double>(
                                  static_cast<std::size_t>(n * slots), 0.0)
                            : std::vector<double>{}});
    extent.push_back(constrained_extent(ls));
  }

  // Block estimates over the shifts a query has swept, block k's mean being
  // sum(k) / sps: of its per-sample products, or (prefix row i) of its slot
  // k. On the adaptive path each shift block has its own slot, whichever
  // round swept it.
  const auto estimate = [sps](const QmcQuery& qq, const auto& sum) {
    std::vector<double> means(static_cast<std::size_t>(qq.done));
    for (int k = 0; k < qq.done; ++k)
      means[static_cast<std::size_t>(k)] = sum(k) / static_cast<double>(sps);
    return stats::combine_block_means(means);
  };
  const auto block_estimate = [&](const QmcQuery& qq) {
    return estimate(qq, [&](int k) {
      const auto block = qq.p.begin() + static_cast<i64>(k) * sps;
      return std::accumulate(block, block + sps, 0.0);
    });
  };
  const auto prefix_row = [&](const QmcQuery& qq, i64 i) {
    return estimate(qq, [&](int k) {
      return qq.prefix_store[static_cast<std::size_t>(k * n + i)];
    });
  };

  // The round loop (see the header): each query retires once its
  // criterion is met, or en masse when the deadline expires. Stop decisions
  // run here on the host thread from deterministic block sums, so the
  // adaptive round schedule, and every result bit, is the same for every
  // worker count; deadline stops are time-dependent and exempt (see
  // ROADMAP). The adaptive first round sweeps min_shifts blocks in one pass
  // (one wait for the workers), every later round one block.
  const double deadline_s = static_cast<double>(opts_.deadline_ms) / 1000.0;
  const bool pair_tasks = f.backend().pair_update_tasks();
  const i64 m = f.tile_size();
  Workspace ws;
  std::vector<i64> active(qs.size());
  std::iota(active.begin(), active.end(), i64{0});
  for (int round = 0; !active.empty(); ++round) {
    // Deadline check between rounds — but only after the first round, so
    // every query retires with at least one shift block (min_shifts on the
    // adaptive path) behind its estimate (a deadline result is a partial
    // answer, never an empty one).
    if (deadline_on && round > 0 && timer.seconds() >= deadline_s) break;
    const int round_shifts =
        !stepped ? opts_.shifts
                 : (opts_.adaptive && round == 0 ? opts_.min_shifts : 1);
    // Every active query has swept the same shift blocks.
    const i64 s_begin = qs[static_cast<std::size_t>(active.front())].done * sps;
    // Per-query panel width: the sweep shares the panel budget, counted as
    // 2 matrices (M, Y) of n rows, 8 bytes each — an upper bound, since
    // rows past the extent get no panels. Floored at one tile width per
    // query and rounded to a tile multiple. For a 1-element batch this
    // reproduces the single-query decomposition exactly; panelling is exact
    // regardless (sample columns are independent chains, and column-tile
    // boundaries fall at tile multiples for every panel width).
    const i64 nact = static_cast<i64>(active.size());
    const i64 panel_cols =
        std::max(opts_.panel_bytes / (2 * 8 * n * nact), m) / m * m;
    const SweepPlan plan = plan_sweep({extent, active, s_begin,
                                       s_begin + round_shifts * sps,
                                       slot_shifts * sps, m, panel_cols,
                                       pair_tasks});
    for (const PanelPlan& panel : plan) run_panel(rt_, f, panel, qs, ws);
    std::vector<i64> still;
    still.reserve(active.size());
    for (const i64 j : active) {
      QmcQuery& qq = qs[static_cast<std::size_t>(j)];
      qq.done += round_shifts;
      // Early-stop checks belong to adaptive mode only: a deadline-bounded
      // fixed-budget run sweeps every block the clock allows. A prefix
      // query retires only when its whole curve is settled — the
      // confidence-region envelope is a running min of these rows, so
      // row-wise clearance implies the envelope's side cannot flip with
      // more samples inside the error model.
      if (opts_.adaptive && qq.done >= opts_.min_shifts) {
        if (decision_settled(qq.ls->prefix ? n : 1, qq.ls->decision,
                             opts_.abs_tol, [&](i64 i) {
                               return qq.ls->prefix ? prefix_row(qq, i)
                                                    : block_estimate(qq);
                             })) {
          results[static_cast<std::size_t>(qq.index)].converged = true;
          continue;
        }
      }
      if (qq.done < opts_.shifts) still.push_back(j);
    }
    active = std::move(still);
  }

  for (const QmcQuery& qq : qs) {
    const stats::BlockEstimate est = block_estimate(qq);
    QueryResult& res = results[static_cast<std::size_t>(qq.index)];
    res.prob = est.mean;
    res.error3sigma = est.error3sigma;
    res.samples_used = static_cast<i64>(qq.done) * sps;
    res.shifts_used = qq.done;
    if (qq.ls->prefix) {
      // Fold the prefix slots in ascending order, then normalise by the
      // samples this query actually evaluated.
      res.prefix_prob.assign(static_cast<std::size_t>(n), 0.0);
      for (int slot = 0; slot < qq.done / slot_shifts; ++slot)
        for (i64 i = 0; i < n; ++i)
          res.prefix_prob[static_cast<std::size_t>(i)] +=
              qq.prefix_store[static_cast<std::size_t>(
                  static_cast<i64>(slot) * n + i)];
      const double inv = 1.0 / static_cast<double>(res.samples_used);
      for (double& v : res.prefix_prob) v *= inv;
    }
  }
  // The loop ends with queries still active only when the deadline hit.
  for (const i64 j : active)
    results[static_cast<std::size_t>(qs[static_cast<std::size_t>(j)].index)]
        .method = EvalMethod::kDeadline;
  const double seconds = timer.seconds();
  for (QueryResult& res : results) res.seconds = seconds;
  return results;
}

}  // namespace parmvn::engine
