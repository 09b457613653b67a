// Amortization curve of the factor-once / evaluate-many engine: time to
// detect confidence regions for 1 / 4 / 16 thresholds over one field,
// batched against a single cached Cholesky factor, versus the pre-refactor
// pattern of one full detect_confidence_region call (generation +
// factorization + sweep) per threshold.
//
// The field has constant marginal variance, so every threshold induces the
// same marginal ordering and the whole batch shares one factor: the batched
// cost is one factorization plus k fused sweeps whose per-column-tile chains
// run side by side on the workers, while the loop pays k factorizations. Expectation: 16 batched thresholds land well under 3x the
// single-query time at n >= 2048, against ~16x for the loop.
//
// An adaptive-vs-fixed sweep rides along: the same 16 thresholds evaluated
// with the error-budget-adaptive engine (decision stop at 1-alpha plus an
// abs_tol fallback) against the fixed-budget sweep, checking the detected
// regions match and reporting per-query sample savings. `--json` emits just
// that sweep for BENCH_adaptive.json at the repo root (regenerate with:
// ./bench_batched_queries --json > ../BENCH_adaptive.json ).
//
// Build & run:  ./build/bench/bench_batched_queries [--quick|--full]
//               [--threads=N] [--json]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/timer.hpp"
#include "core/excursion.hpp"
#include "engine/factor_cache.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "runtime/runtime.hpp"
#include "stats/covariance.hpp"

namespace {

using namespace parmvn;

std::vector<double> bump_mean(const geo::LocationSet& locs) {
  std::vector<double> mean(locs.size());
  for (std::size_t i = 0; i < locs.size(); ++i) {
    const double dx = locs[i].x - 0.35;
    const double dy = locs[i].y - 0.6;
    // Smooth bump well above the threshold band, plus a deterministic tilt
    // that keeps marginals strictly ordered (no near-ties whose rounding
    // could split the batch into several ordering groups).
    mean[i] = 3.2 * std::exp(-10.0 * (dx * dx + dy * dy)) +
              1e-4 * static_cast<double>(i % 101);
  }
  return mean;
}

std::vector<core::CrdQuery> threshold_queries(i64 count) {
  std::vector<core::CrdQuery> queries;
  queries.reserve(static_cast<std::size_t>(count));
  for (i64 k = 0; k < count; ++k) {
    core::CrdQuery q;
    q.threshold =
        0.7 + 0.75 * static_cast<double>(k) / static_cast<double>(count);
    q.alpha = 0.1;
    queries.push_back(q);
  }
  return queries;
}

// Field for the adaptive-vs-fixed sweep: a high plateau over a deep
// background, so the prefix-probability curve jumps across the 1-alpha
// level between adjacent rows instead of grazing it. Decision-aware early
// stop retires exactly such decisive queries; rows whose interval straddles
// the level run to the cap by design (that is the no-flip guarantee), which
// the gradual bump field above would force on every threshold.
std::vector<double> plateau_mean(const geo::LocationSet& locs) {
  std::vector<double> mean(locs.size());
  for (std::size_t i = 0; i < locs.size(); ++i) {
    const double dx = locs[i].x - 0.35;
    const double dy = locs[i].y - 0.6;
    const bool high = dx * dx + dy * dy < 0.0144;
    mean[i] = (high ? 4.1 : -0.8) + 1e-4 * static_cast<double>(i % 101);
  }
  return mean;
}

struct AdaptiveRow {
  double threshold = 0.0;
  i64 fixed_samples = 0;
  i64 adaptive_samples = 0;
  bool converged = false;
  bool region_match = false;
};

// Adaptive-vs-fixed sweep over `k` thresholds: same seed, same shift-budget
// cap; the adaptive run may only stop early, never change the answer.
struct AdaptiveSweep {
  std::vector<AdaptiveRow> rows;
  double fixed_s = 0.0;
  double adaptive_s = 0.0;
  double median_ratio = 1.0;
};

AdaptiveSweep run_adaptive_sweep(rt::Runtime& rt,
                                 const la::MatrixGenerator& cov,
                                 const geo::LocationSet& locs,
                                 const core::CrdOptions& base, i64 k) {
  const std::vector<core::CrdQuery> queries = threshold_queries(k);
  const std::vector<double> mean = plateau_mean(locs);

  // A budget sized so the error actually resolves the decision: the rows
  // straddling the 1-alpha level need err3sigma ~ 1e-2 before either the
  // decision clearance or the abs_tol fallback can retire them, and the
  // adaptive loop retires per shift block — 16 blocks give stop-granularity
  // headroom at the same total budget.
  core::CrdOptions fixed = base;
  fixed.pmvn.samples_per_shift = 50;
  fixed.pmvn.shifts = 16;

  core::CrdOptions adaptive = fixed;
  adaptive.pmvn.adaptive = true;
  adaptive.pmvn.abs_tol = 0.0;  // decision-only: ambiguous rows run to the cap

  AdaptiveSweep sweep;
  {
    engine::FactorCache cache(2);
    const WallTimer timer;
    const std::vector<core::CrdResult> res =
        core::detect_confidence_regions(rt, cov, mean, fixed, queries, &cache);
    sweep.fixed_s = timer.seconds();
    sweep.rows.resize(res.size());
    for (std::size_t i = 0; i < res.size(); ++i) {
      sweep.rows[i].threshold = queries[i].threshold;
      sweep.rows[i].fixed_samples = res[i].samples_used;
    }
    const WallTimer ada_timer;
    const std::vector<core::CrdResult> ares = core::detect_confidence_regions(
        rt, cov, mean, adaptive, queries, &cache);
    sweep.adaptive_s = ada_timer.seconds();
    for (std::size_t i = 0; i < ares.size(); ++i) {
      sweep.rows[i].adaptive_samples = ares[i].samples_used;
      sweep.rows[i].converged = ares[i].converged;
      sweep.rows[i].region_match = ares[i].region == res[i].region;
    }
  }
  std::vector<double> ratios;
  ratios.reserve(sweep.rows.size());
  for (const AdaptiveRow& r : sweep.rows)
    ratios.push_back(static_cast<double>(r.adaptive_samples) /
                     static_cast<double>(r.fixed_samples));
  std::sort(ratios.begin(), ratios.end());
  sweep.median_ratio = ratios[ratios.size() / 2];
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bool json = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  if (!json)
    bench::header("batched queries",
                  "multi-threshold confidence regions on one cached factor",
                  args);

  const i64 nx = args.full ? 64 : (args.quick ? 24 : 64);
  const i64 ny = args.full ? 64 : (args.quick ? 24 : 32);
  const i64 tile = args.quick ? 96 : 256;
  const geo::LocationSet locs = geo::regular_grid(nx, ny);
  const auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.1);
  const geo::KernelCovGenerator cov(locs, kernel, 1e-6);
  const std::vector<double> mean = bump_mean(locs);
  const i64 n = cov.rows();

  core::CrdOptions opts;
  opts.alpha = 0.1;
  opts.tile = tile;
  opts.pmvn.samples_per_shift = args.full ? 50 : 10;
  opts.pmvn.shifts = 4;
  opts.pmvn.sampler = stats::SamplerKind::kRichtmyer;

  rt::Runtime rt(args.threads > 0 ? static_cast<int>(args.threads)
                                  : default_num_threads());

  // Warm-up: touch the code paths once so first-run effects (page faults,
  // lazy allocations) do not land on the single-query measurement.
  {
    const std::vector<core::CrdQuery> one = threshold_queries(1);
    engine::FactorCache warm_cache(2);
    (void)core::detect_confidence_regions(rt, cov, mean, opts, one,
                                          &warm_cache);
  }

  if (json) {
    // JSON mode emits only the adaptive-vs-fixed sweep (BENCH_adaptive.json).
    const AdaptiveSweep sweep = run_adaptive_sweep(rt, cov, locs, opts, 16);
    std::printf("{\n  \"bench\": \"adaptive_vs_fixed\",\n");
    std::printf("  \"n\": %lld, \"tile\": %lld, \"workers\": %d,\n",
                static_cast<long long>(n), static_cast<long long>(tile),
                rt.num_threads());
    std::printf("  \"fixed_s\": %.3f, \"adaptive_s\": %.3f,\n", sweep.fixed_s,
                sweep.adaptive_s);
    std::printf("  \"median_sample_ratio\": %.3f,\n", sweep.median_ratio);
    std::printf("  \"rows\": [\n");
    for (std::size_t i = 0; i < sweep.rows.size(); ++i) {
      const AdaptiveRow& r = sweep.rows[i];
      std::printf("    {\"threshold\": %.4f, \"fixed_samples\": %lld, "
                  "\"adaptive_samples\": %lld, \"converged\": %s, "
                  "\"region_match\": %s}%s\n",
                  r.threshold, static_cast<long long>(r.fixed_samples),
                  static_cast<long long>(r.adaptive_samples),
                  r.converged ? "true" : "false",
                  r.region_match ? "true" : "false",
                  i + 1 < sweep.rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
  }

  std::printf("# n=%lld tile=%lld samples/query=%lld workers=%d\n",
              static_cast<long long>(n), static_cast<long long>(tile),
              static_cast<long long>(opts.pmvn.total_samples()),
              rt.num_threads());
  std::printf("mode,queries,total_s,per_query_s,vs_single\n");
  double single_s = 0.0;
  std::vector<double> batch_ratio(17, 0.0);
  for (const i64 k : {i64{1}, i64{4}, i64{16}}) {
    const std::vector<core::CrdQuery> queries = threshold_queries(k);
    engine::FactorCache cache(2);  // fresh: the batch itself shares a factor
    const WallTimer timer;
    const std::vector<core::CrdResult> results =
        core::detect_confidence_regions(rt, cov, mean, opts, queries, &cache);
    const double elapsed = timer.seconds();
    if (k == 1) single_s = elapsed;
    batch_ratio[static_cast<std::size_t>(k)] = elapsed / single_s;
    std::printf("batched,%lld,%.3f,%.3f,%.2fx\n", static_cast<long long>(k),
                elapsed, elapsed / static_cast<double>(k),
                elapsed / single_s);
    std::fflush(stdout);
    if (cache.stats().misses != 1) {
      std::printf("# WARNING: batch split into %lld factor groups\n",
                  static_cast<long long>(cache.stats().misses));
    }
    (void)results;
  }

  // Pre-refactor pattern: one full detection (factor + sweep) per threshold.
  // Default mode times 4 and extrapolates; --full times all 16.
  const i64 loop_k = args.full ? 16 : 4;
  {
    const std::vector<core::CrdQuery> queries = threshold_queries(loop_k);
    const WallTimer timer;
    for (const core::CrdQuery& q : queries) {
      core::CrdOptions one = opts;
      one.threshold = q.threshold;
      one.alpha = q.alpha;
      (void)core::detect_confidence_region(rt, cov, mean, one);
    }
    const double elapsed = timer.seconds();
    const double per_query = elapsed / static_cast<double>(loop_k);
    std::printf("loop,%lld,%.3f,%.3f,%.2fx\n",
                static_cast<long long>(loop_k), elapsed, per_query,
                elapsed / single_s);
    std::printf("loop_extrapolated,16,%.3f,%.3f,%.2fx\n", per_query * 16.0,
                per_query, per_query * 16.0 / single_s);
  }

  std::printf(
      "# acceptance: 16 batched thresholds ran at %.2fx the single-query "
      "time (target < 3x; the per-query loop sits near 16x)\n",
      batch_ratio[16]);

  // Adaptive vs fixed on the same 16 thresholds.
  {
    const AdaptiveSweep sweep = run_adaptive_sweep(rt, cov, locs, opts, 16);
    bool all_match = true;
    for (const AdaptiveRow& r : sweep.rows) all_match &= r.region_match;
    std::printf("adaptive,threshold,fixed_samples,adaptive_samples,ratio,"
                "converged,region_match\n");
    for (const AdaptiveRow& r : sweep.rows)
      std::printf("adaptive,%.4f,%lld,%lld,%.3f,%d,%d\n", r.threshold,
                  static_cast<long long>(r.fixed_samples),
                  static_cast<long long>(r.adaptive_samples),
                  static_cast<double>(r.adaptive_samples) /
                      static_cast<double>(r.fixed_samples),
                  r.converged ? 1 : 0, r.region_match ? 1 : 0);
    std::printf(
        "# acceptance: adaptive median sample ratio %.3f (target <= 0.5), "
        "regions %s (fixed %.3fs vs adaptive %.3fs)\n",
        sweep.median_ratio, all_match ? "all match" : "MISMATCH",
        sweep.fixed_s, sweep.adaptive_s);
  }
  return 0;
}
