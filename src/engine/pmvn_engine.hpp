// Batched PMVN engine — the "evaluate many" half of factor-once /
// evaluate-many.
//
// A PmvnEngine holds one CholeskyFactor and evaluates a batch of limit sets
// (queries) against it in a single fused task graph: the sample panels of
// all queries are packed end to end into shared wide sample-contiguous
// panels (rows = samples of the whole batch, columns = dimensions — the
// same layout the QMC tile kernel sweeps), cut into tile-width column
// tiles. Each column tile is an independent pipeline of QMC and mean-update
// tasks, so the chains of different queries (and of one query's column
// tiles) fill the worker pool even when a single chain would leave it idle.
//
// Two contracts, enforced by tests/test_determinism.cpp:
//  * schedule independence: results are bitwise identical across worker
//    counts (all arithmetic happens in tasks with fixed reduction orders,
//    sequenced by the runtime's sequential-consistency dependency rules);
//  * batch transparency: each query's result is bitwise identical to
//    evaluating that query alone with the same seed. This holds because
//    sample columns are independent chains, column tiles never straddle
//    queries, and the microkernel's per-column arithmetic does not depend on
//    panel width or column position.
//
// One round loop serves every path: the fixed budget is one round, while
// adaptive mode (EngineOptions::adaptive) and deadlines retire queries
// between rounds — the adaptive path's first round sweeps its min_shifts
// blocks at once, and every other round one shift block; each round reuses
// the same fused wide-panel sweep, and the same panel workspace, over the
// still-active subset. All stop decisions happen on the host thread from
// deterministic block sums, and column tiles and prefix slots never
// straddle a shift block there, so both contracts extend to the adaptive
// path whatever the round partition.
#pragma once

#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "engine/cholesky_factor.hpp"
#include "stats/qmc.hpp"

namespace parmvn::engine {

/// Batch-level integration parameters (shared by every query in a batch).
struct EngineOptions {
  i64 samples_per_shift = 1000;
  int shifts = 10;
  /// Defaults to pseudo-MC, the paper's Algorithm 2 (R filled with i.i.d.
  /// U(0,1)). Richtmyer QMC, which Genz recommends and which converges
  /// faster in the sampler ablation, is set explicitly by the callers that
  /// want it (the server, bench_e2e, the examples).
  stats::SamplerKind sampler = stats::SamplerKind::kPseudoMC;
  /// Memory budget for the batch's M (conditional mean) and Y
  /// (conditioning value) panels, shared across all queries; floored at one
  /// tile-width of columns per query.
  i64 panel_bytes = i64{512} << 20;

  /// Error-budget-adaptive evaluation: sweep shift blocks round by round and
  /// retire each query independently once its running 3-sigma estimate fits
  /// `abs_tol`, or — when the query carries a decision threshold — once
  /// prob +/- error3sigma cleanly clears it. `shifts` stays the hard budget
  /// cap. Off (the default) keeps the fixed-budget sweep bitwise unchanged.
  /// The stop schedule is computed on the host thread from deterministic
  /// block sums, so adaptive results are identical across worker counts
  /// given the same seed.
  bool adaptive = false;
  /// Target 3-sigma error for the adaptive stop (0 = decision-only stop).
  double abs_tol = 0.0;
  /// Shift blocks evaluated before the first stop decision (>= 2: a lone
  /// block's error estimate is infinite and must never gate a decision).
  /// The first adaptive round sweeps all of them as one fused pass (no
  /// stop, deadline included, can come earlier); later rounds sweep one
  /// block each. The partition moves no result bit.
  int min_shifts = 2;

  /// Tiered evaluation: every query carrying a decision threshold is first
  /// screened by the deterministic EP estimator (src/ep/) on the host
  /// thread; a query whose threshold falls cleanly outside the EP band
  /// (every gated estimate at least `ep_margin` away, prefix rows using the
  /// same monotone shortcut as the adaptive path) retires immediately with
  /// method == EvalMethod::kEp and never enters the QMC sweep. QMC stays
  /// authoritative: EP only *skips* work for queries it decides with
  /// margin; the straddlers' QMC numbers are bitwise identical to the
  /// untiered run (batch transparency), and `tiered` off reproduces the
  /// QMC-only path bitwise. EP itself is a pure host-thread function of the
  /// factor bits, so the tiered path stays deterministic across worker
  /// counts. A screen is one deterministic pass (no state carries from one
  /// query to the next); a failed or non-finite screen never retires
  /// anything.
  bool tiered = false;
  /// Conservative EP error band half-width (absolute probability). The
  /// default is calibrated against dense QMC on smooth GP fields
  /// (tests/test_ep.cpp holds |EP - QMC| well under it at n = 64..256).
  double ep_margin = 0.05;

  /// Wall-clock deadline for the whole evaluate() call in milliseconds
  /// (0 = none). Checked on the host thread between shift-block rounds (and
  /// between tiered EP screens): when it expires, every still-active query
  /// retires immediately with its best-so-far block estimate,
  /// converged == false and method == EvalMethod::kDeadline. Every query
  /// always completes the first round — one shift block, min_shifts on the
  /// adaptive path — so a deadline result is an estimate, never empty. A
  /// deadline routes the fixed-budget sweep through the same round loop the
  /// adaptive path uses; deadline stops are time-dependent and therefore
  /// explicitly exempt from the bitwise determinism contracts (see ROADMAP)
  /// — the default (0) keeps every contracted path bitwise unchanged.
  i64 deadline_ms = 0;

  [[nodiscard]] i64 total_samples() const noexcept {
    return samples_per_shift * static_cast<i64>(shifts);
  }

  /// Range-check every knob and throw a typed parmvn::Error naming the
  /// offending one (negative deadline_ms, negative ep_margin, zero
  /// samples, …). PmvnEngine's constructor calls this, so nonsense options
  /// fail at construction instead of as undefined downstream behavior.
  void validate() const;
};

/// One query: integration limits in the factor's (ordered, standardised)
/// space, plus the per-query sample-stream seed.
struct LimitSet {
  std::span<const double> a;
  std::span<const double> b;
  u64 seed = 42;
  bool prefix = false;  // also accumulate all prefix probabilities
  /// Decision threshold for adaptive early stop: the query retires once
  /// prob +/- error3sigma lies entirely on one side (for prefix queries:
  /// once every prefix probability does). NaN = no decision stop.
  double decision = std::numeric_limits<double>::quiet_NaN();
};

/// Which tier produced a result: the authoritative QMC sweep, the EP
/// screen (tiered mode only — the query's decision threshold fell cleanly
/// outside the EP error band, so no samples were spent on it), or a
/// deadline stop (EngineOptions::deadline_ms expired with the query still
/// active — prob is the best-so-far QMC block estimate).
enum class EvalMethod { kQmc, kEp, kDeadline };

struct QueryResult {
  double prob = 0.0;
  double error3sigma = 0.0;
  double seconds = 0.0;  // wall time of the whole batch (same for each query)
  std::vector<double> prefix_prob;  // filled when LimitSet::prefix
  i64 samples_used = 0;             // samples actually evaluated
  int shifts_used = 0;              // shift blocks actually evaluated
  /// Adaptive path only: the stop criterion was met before the `shifts`
  /// budget ran out (always false on the fixed-budget path).
  bool converged = false;
  /// Result provenance. For kEp, prob/prefix_prob are the EP estimates,
  /// error3sigma reports the EP band (EngineOptions::ep_margin),
  /// samples_used/shifts_used are 0 and converged is true.
  EvalMethod method = EvalMethod::kQmc;
};

class PmvnEngine {
 public:
  /// The factor must have been built with (and stay bound to) `rt`.
  PmvnEngine(rt::Runtime& rt, std::shared_ptr<const CholeskyFactor> factor,
             EngineOptions opts = {});

  /// Evaluate every query in one fused task graph. Results are positionally
  /// matched to `queries`. A NaN limit throws a typed parmvn::Error naming
  /// the query index before any work starts.
  [[nodiscard]] std::vector<QueryResult> evaluate(
      std::span<const LimitSet> queries) const;

  /// Single-query convenience (a 1-element batch).
  [[nodiscard]] QueryResult evaluate_one(const LimitSet& query) const;

  [[nodiscard]] const CholeskyFactor& factor() const noexcept {
    return *factor_;
  }
  [[nodiscard]] const EngineOptions& options() const noexcept { return opts_; }

 private:
  /// The QMC wide-panel round loop (fixed-budget or adaptive) — the untiered
  /// evaluate(), bitwise independent of which queries the EP screen peeled
  /// off (batch transparency). `elapsed_s` is wall time already charged
  /// against the deadline before the sweep started (the tiered screen).
  [[nodiscard]] std::vector<QueryResult> evaluate_qmc(
      std::span<const LimitSet> queries, double elapsed_s = 0.0) const;

  rt::Runtime& rt_;
  std::shared_ptr<const CholeskyFactor> factor_;
  EngineOptions opts_;
};

}  // namespace parmvn::engine
