// Error-budget-adaptive evaluation: the engine sweeps shift blocks round by
// round and retires queries as their 3-sigma estimate fits the budget (or
// cleanly clears a decision threshold). These tests pin the contracts the
// adaptive path adds on top of the fixed-budget engine:
//
//  * adaptive determinism: the stop schedule is computed on the host thread
//    from deterministic block sums, so adaptive results — including
//    samples_used — are bitwise identical across worker counts;
//  * budget honesty: a converged adaptive estimate agrees with the
//    full-budget reference within the combined error bars, never spends
//    more than the fixed budget, and reports error3sigma <= abs_tol; a
//    query that stops after d blocks equals a fixed budget of d blocks
//    bitwise;
//  * round-partition invariance: sweeping the first min_shifts blocks as
//    one fused round moves no result bit;
//  * decision-aware early stop never flips a confidence-region side versus
//    the full-budget sweep;
//  * a single shift block reports *infinite* error, not the old silent 0.0;
//  * evicted factors return their runtime handle slots (HandleLease), so a
//    factor->evict serving loop keeps the handle table bounded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "core/excursion.hpp"
#include "core/sov.hpp"
#include "engine/cholesky_factor.hpp"
#include "engine/factor_cache.hpp"
#include "engine/pmvn_engine.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "linalg/matrix.hpp"
#include "runtime/runtime.hpp"
#include "stats/covariance.hpp"
#include "stats/qmc.hpp"

namespace {

using namespace parmvn;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kWorkerMatrix[] = {1, 2, 8};

struct Problem {
  geo::LocationSet locs;
  std::shared_ptr<stats::ExponentialKernel> kernel;
  std::vector<double> a, b;

  explicit Problem(i64 side)
      : locs(geo::apply_permutation(
            geo::regular_grid(side, side),
            geo::morton_order(geo::regular_grid(side, side)))),
        kernel(std::make_shared<stats::ExponentialKernel>(1.0, 0.2)),
        a(static_cast<std::size_t>(side * side), -0.6),
        b(static_cast<std::size_t>(side * side), kInf) {}
};

engine::EngineOptions adaptive_opts() {
  engine::EngineOptions opts;
  opts.samples_per_shift = 200;
  opts.shifts = 8;
  opts.sampler = stats::SamplerKind::kRichtmyer;
  opts.adaptive = true;
  opts.abs_tol = 5e-3;
  opts.min_shifts = 2;
  return opts;
}

constexpr engine::FactorKind kArms[] = {engine::FactorKind::kDense,
                                        engine::FactorKind::kTlr,
                                        engine::FactorKind::kVecchia};
constexpr stats::SamplerKind kSamplers[] = {stats::SamplerKind::kPseudoMC,
                                            stats::SamplerKind::kRichtmyer,
                                            stats::SamplerKind::kHalton};

// A mixed batch for a 100-site problem swept in 16-wide tiles: extents
// short of one tile, ending mid-tile and spanning every row; prefix and
// scalar queries; one two-sided; decision thresholds on some.
struct MixedQueries {
  std::vector<std::vector<double>> a, b;
  std::vector<engine::LimitSet> queries;

  explicit MixedQueries(i64 n) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const i64 extents[] = {5, 30, n, 64, n, 45, n, 17};
    const double decisions[] = {nan, 0.5, nan, 0.2, 0.9, nan, 0.05, 0.6};
    for (std::size_t q = 0; q < std::size(extents); ++q) {
      a.emplace_back(static_cast<std::size_t>(n), -kInf);
      std::fill_n(a.back().begin(), extents[q],
                  -1.0 + 0.2 * static_cast<double>(q));
      b.emplace_back(static_cast<std::size_t>(n), kInf);
      if (q == 4) std::fill_n(b.back().begin() + 40, 20, 1.2);
      engine::LimitSet ls{a.back(), b.back(), 31 + q, q % 3 != 1};
      ls.decision = decisions[q];
      queries.push_back(ls);
    }
  }
};

std::shared_ptr<const engine::CholeskyFactor> arm_factor(
    rt::Runtime& rt, const geo::KernelCovGenerator& gen,
    engine::FactorKind kind) {
  std::vector<i64> identity(static_cast<std::size_t>(gen.rows()));
  std::iota(identity.begin(), identity.end(), i64{0});
  const engine::FactorSpec spec{kind, 16, 1e-7, -1};
  return std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor_ordered(rt, gen, identity, spec));
}

std::shared_ptr<const engine::CholeskyFactor> dense_factor(
    rt::Runtime& rt, const geo::KernelCovGenerator& gen) {
  const i64 n = gen.rows();
  std::vector<i64> identity(static_cast<std::size_t>(n));
  std::iota(identity.begin(), identity.end(), i64{0});
  const engine::FactorSpec spec{engine::FactorKind::kDense, 25, 0.0, -1};
  return std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor_ordered(rt, gen, identity, spec));
}

// Adaptive batch against a dense factor: three queries with distinct limits,
// one carrying a decision threshold, one a prefix sweep. Every per-query
// number (probability, error, samples_used, shifts_used, converged flag,
// prefix sweep) goes into the flattened comparison vector.
std::vector<double> run_adaptive(int workers, const Problem& pb) {
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  rt::Runtime rt(workers);
  const i64 n = gen.rows();
  const engine::PmvnEngine eng(rt, dense_factor(rt, gen), adaptive_opts());

  const std::vector<double> lo1(static_cast<std::size_t>(n), -0.6);
  const std::vector<double> lo2(static_cast<std::size_t>(n), -0.1);
  const std::vector<double> lo3(static_cast<std::size_t>(n), 0.4);
  const std::vector<double> hi(static_cast<std::size_t>(n), kInf);
  std::vector<engine::LimitSet> batch;
  batch.push_back({lo1, hi, 20240517, /*prefix=*/true});
  batch.push_back({lo2, hi, 20240517, /*prefix=*/false, /*decision=*/0.5});
  batch.push_back({lo3, hi, 777, /*prefix=*/false});
  const std::vector<engine::QueryResult> results = eng.evaluate(batch);

  std::vector<double> flat;
  for (const engine::QueryResult& r : results) {
    flat.push_back(r.prob);
    flat.push_back(r.error3sigma);
    flat.push_back(static_cast<double>(r.samples_used));
    flat.push_back(static_cast<double>(r.shifts_used));
    flat.push_back(r.converged ? 1.0 : 0.0);
    flat.insert(flat.end(), r.prefix_prob.begin(), r.prefix_prob.end());
  }
  return flat;
}

TEST(Adaptive, BitwiseIdenticalAcrossWorkers) {
  const Problem pb(10);
  const std::vector<double> reference = run_adaptive(1, pb);
  for (const int workers : kWorkerMatrix) {
    const std::vector<double> got = run_adaptive(workers, pb);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_EQ(got[i], reference[i])
          << "adaptive drifted, workers=" << workers << " value=" << i;
  }
}

TEST(Adaptive, ConvergedEstimateAgreesWithFixedBudgetReference) {
  const Problem pb(10);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  rt::Runtime rt(4);
  const auto factor = dense_factor(rt, gen);

  engine::EngineOptions fixed = adaptive_opts();
  fixed.adaptive = false;
  fixed.abs_tol = 0.0;
  const engine::PmvnEngine ref_eng(rt, factor, fixed);
  const engine::PmvnEngine ada_eng(rt, factor, adaptive_opts());

  const engine::LimitSet q{pb.a, pb.b, 20240517, false};
  const engine::QueryResult ref = ref_eng.evaluate_one(q);
  const engine::QueryResult ada = ada_eng.evaluate_one(q);

  // Fixed path fills the accounting fields with the whole budget.
  EXPECT_EQ(ref.samples_used, fixed.total_samples());
  EXPECT_EQ(ref.shifts_used, fixed.shifts);
  EXPECT_FALSE(ref.converged);

  // Adaptive never exceeds the cap; if it stopped early it must both claim
  // convergence and back it with an in-budget error bar.
  EXPECT_LE(ada.samples_used, fixed.total_samples());
  EXPECT_GE(ada.shifts_used, 2);
  if (ada.converged) {
    EXPECT_LE(ada.error3sigma, 5e-3);
  }
  EXPECT_NEAR(ada.prob, ref.prob, ada.error3sigma + ref.error3sigma);

  // Exhausting the cap reproduces the fixed-budget estimate bitwise: the
  // same shift blocks, accumulated in the same order.
  engine::EngineOptions strict = adaptive_opts();
  strict.abs_tol = 1e-300;
  const engine::PmvnEngine strict_eng(rt, factor, strict);
  const engine::QueryResult capped = strict_eng.evaluate_one(q);
  EXPECT_EQ(capped.samples_used, fixed.total_samples());
  EXPECT_FALSE(capped.converged);
  EXPECT_EQ(capped.prob, ref.prob);
  EXPECT_EQ(capped.error3sigma, ref.error3sigma);

  // Every query of a mixed batch that stops after d blocks reports exactly
  // what a fixed budget of d blocks reports, whichever round swept its
  // blocks: on every arm and sampler, with shift blocks narrower and wider
  // than the column tile (16).
  const MixedQueries mixed(gen.rows());
  std::set<int> stops;
  for (const engine::FactorKind kind : kArms) {
    const auto arm = arm_factor(rt, gen, kind);
    for (const stats::SamplerKind sampler : kSamplers) {
      for (const i64 sps : {i64{12}, i64{40}}) {
        engine::EngineOptions ada = adaptive_opts();
        ada.samples_per_shift = sps;
        ada.sampler = sampler;
        const std::vector<engine::QueryResult> got =
            engine::PmvnEngine(rt, arm, ada).evaluate(mixed.queries);
        for (std::size_t qi = 0; qi < got.size(); ++qi) {
          const int d = got[qi].shifts_used;
          stops.insert(d);
          engine::EngineOptions budget = ada;
          budget.adaptive = false;
          budget.abs_tol = 0.0;
          budget.shifts = d;
          const engine::QueryResult want =
              engine::PmvnEngine(rt, arm, budget)
                  .evaluate_one(mixed.queries[qi]);
          const std::string where =
              "kind=" + std::to_string(static_cast<int>(kind)) +
              " sampler=" + stats::to_string(sampler) +
              " sps=" + std::to_string(sps) + " query=" + std::to_string(qi);
          EXPECT_EQ(got[qi].prob, want.prob) << where;
          EXPECT_EQ(got[qi].error3sigma, want.error3sigma) << where;
          EXPECT_EQ(got[qi].samples_used, want.samples_used) << where;
        }
      }
    }
  }
  // The batch must exercise early stops and cap-length runs alike.
  EXPECT_GE(stops.size(), 2u);
  EXPECT_EQ(*stops.begin(), 2);
  EXPECT_EQ(*stops.rbegin(), adaptive_opts().shifts);
}

// How the rounds partition the shift blocks moves no bit: the first
// adaptive round sweeps min_shifts blocks as one fused pass, yet a batch
// that never stops must come out the same whether that round covers 2
// blocks or the whole budget — and the same as a one-block-per-round sweep
// (a fixed budget under an unexpired deadline). Also with panel budgets
// that cut every shift block into single column tiles, or give each block
// a panel of its own.
TEST(Adaptive, RoundPartitionMovesNoBit) {
  const Problem pb(10);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  const i64 n = gen.rows();
  rt::Runtime rt(4);
  const MixedQueries mixed(n);
  std::vector<engine::LimitSet> batch = mixed.queries;
  for (engine::LimitSet& q : batch)
    q.decision = std::numeric_limits<double>::quiet_NaN();
  const auto nq = static_cast<i64>(batch.size());
  for (const engine::FactorKind kind : kArms) {
    const auto arm = arm_factor(rt, gen, kind);
    // Panel widths per query: the default budget (one panel for the whole
    // range), one column tile, and wider than a block but narrower than
    // the range.
    for (const i64 panel_cols : {i64{0}, i64{16}, i64{48}}) {
      engine::EngineOptions base;
      base.samples_per_shift = 40;
      base.shifts = 6;
      base.sampler = stats::SamplerKind::kRichtmyer;
      if (panel_cols > 0) base.panel_bytes = panel_cols * 2 * 8 * n * nq;
      engine::EngineOptions first2 = base;
      first2.adaptive = true;  // abs_tol 0 and no decisions: never stops
      first2.min_shifts = 2;
      engine::EngineOptions first_all = first2;
      first_all.min_shifts = base.shifts;
      engine::EngineOptions one_by_one = base;
      one_by_one.deadline_ms = i64{1000} * 3600;  // never expires here

      const std::vector<engine::QueryResult> want =
          engine::PmvnEngine(rt, arm, one_by_one).evaluate(batch);
      for (const engine::EngineOptions& opts : {first2, first_all}) {
        const std::vector<engine::QueryResult> got =
            engine::PmvnEngine(rt, arm, opts).evaluate(batch);
        for (std::size_t qi = 0; qi < got.size(); ++qi) {
          const std::string where =
              "kind=" + std::to_string(static_cast<int>(kind)) +
              " panel_cols=" + std::to_string(panel_cols) +
              " min_shifts=" + std::to_string(opts.min_shifts) +
              " query=" + std::to_string(qi);
          EXPECT_EQ(got[qi].shifts_used, base.shifts) << where;
          EXPECT_EQ(got[qi].prob, want[qi].prob) << where;
          EXPECT_EQ(got[qi].error3sigma, want[qi].error3sigma) << where;
          ASSERT_EQ(got[qi].prefix_prob.size(), want[qi].prefix_prob.size())
              << where;
          for (std::size_t i = 0; i < want[qi].prefix_prob.size(); ++i)
            EXPECT_EQ(got[qi].prefix_prob[i], want[qi].prefix_prob[i])
                << where << " prefix=" << i;
        }
      }
    }
  }
}

// Confidence-region detection with decision-aware early stop: the adaptive
// sweep may retire prefixes early only when their interval cleanly clears
// the 1-alpha level, so the detected region must match the full-budget
// sweep exactly on every location.
TEST(Adaptive, DecisionStopNeverFlipsRegionSide) {
  const i64 side = 8;
  const Problem pb(side);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);

  // Smooth bump mean over the unit square: a real excursion geometry with
  // locations on both sides of the threshold and a genuine boundary.
  std::vector<double> mean(pb.locs.size());
  for (std::size_t i = 0; i < pb.locs.size(); ++i) {
    const double dx = pb.locs[i].x - 0.5;
    const double dy = pb.locs[i].y - 0.5;
    mean[i] = 1.6 * std::exp(-(dx * dx + dy * dy) / 0.08);
  }

  core::CrdOptions opts;
  opts.threshold = 0.8;
  opts.alpha = 0.1;
  opts.tile = 16;
  opts.pmvn.samples_per_shift = 200;
  opts.pmvn.shifts = 8;
  opts.pmvn.sampler = stats::SamplerKind::kRichtmyer;
  opts.pmvn.seed = 20240517;

  const std::vector<core::CrdQuery> queries = {
      {0.6, 0.1, core::CrdDirection::kAbove, {}},
      {0.8, 0.1, core::CrdDirection::kAbove, {}},
      {1.1, 0.1, core::CrdDirection::kAbove, {}},
  };

  rt::Runtime rt(4);
  const std::vector<core::CrdResult> fixed =
      core::detect_confidence_regions(rt, gen, mean, opts, queries);

  core::CrdOptions ada = opts;
  ada.pmvn.adaptive = true;
  ada.pmvn.abs_tol = 1e-3;  // decision stop + a tight fallback budget
  const std::vector<core::CrdResult> adaptive =
      core::detect_confidence_regions(rt, gen, mean, ada, queries);

  ASSERT_EQ(adaptive.size(), fixed.size());
  for (std::size_t qi = 0; qi < fixed.size(); ++qi) {
    ASSERT_EQ(adaptive[qi].region.size(), fixed[qi].region.size());
    EXPECT_EQ(adaptive[qi].region_size, fixed[qi].region_size)
        << "query=" << qi;
    for (std::size_t i = 0; i < fixed[qi].region.size(); ++i)
      EXPECT_EQ(adaptive[qi].region[i], fixed[qi].region[i])
          << "query=" << qi << " location=" << i;
  }
}

TEST(Adaptive, SingleShiftBlockReportsInfiniteError) {
  // Regression for the silent zero error estimate: shifts == 1 has no
  // between-block spread to estimate from, and must say so loudly.
  const Problem pb(6);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  const la::Matrix sigma = geo::dense_from_generator(gen);

  engine::EngineOptions eo;
  eo.samples_per_shift = 100;
  eo.shifts = 1;
  engine::EngineOptions qmc = eo;
  qmc.sampler = stats::SamplerKind::kRichtmyer;
  const engine::QueryResult res =
      core::mvn_probability(sigma.view(), {pb.a, pb.b}, qmc);
  EXPECT_TRUE(std::isinf(res.error3sigma));
  EXPECT_GT(res.prob, 0.0);

  rt::Runtime rt(2);
  const engine::PmvnEngine eng(rt, dense_factor(rt, gen), eo);
  const engine::QueryResult qr = eng.evaluate_one({pb.a, pb.b, 42, false});
  EXPECT_TRUE(std::isinf(qr.error3sigma));

  // And the adaptive path refuses outright: its estimate gates decisions.
  engine::EngineOptions bad = eo;
  bad.adaptive = true;
  EXPECT_THROW(engine::PmvnEngine(rt, dense_factor(rt, gen), bad),
               parmvn::Error);
}

TEST(HandleLease, FactorEvictLoopKeepsHandleTableBounded) {
  // Serving regression for the factor handle-slot leak: factor under
  // distinct orderings through a small cache so older entries evict; every
  // evicted factor must return its runtime handle slots, or the handle
  // table grows with eviction volume.
  const Problem pb(5);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  const i64 n = gen.rows();
  rt::Runtime rt(2);
  engine::FactorCache cache(/*capacity=*/2);
  const engine::FactorSpec spec{engine::FactorKind::kDense, 10, 0.0, -1};

  const rt::DataHandle before = rt.register_data();
  rt.release_data(before);

  for (int it = 0; it < 12; ++it) {
    // Rotate the ordering so each iteration is a distinct cache key.
    std::vector<i64> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), i64{0});
    std::rotate(order.begin(), order.begin() + (it % 6), order.end());
    const auto factor = cache.get_or_factor(rt, gen, std::move(order), spec);
    // Touch the factor so the loop is an honest serving pattern.
    const engine::PmvnEngine eng(rt, factor, engine::EngineOptions{100, 2});
    (void)eng.evaluate_one({pb.a, pb.b, 42, false});
  }
  EXPECT_GT(cache.stats().evictions, 0);

  const rt::DataHandle after = rt.register_data();
  // At most the cache's live factors (plus one sweep's recycled round) may
  // hold slots; without the lease this gap would be ~10 evicted factors'
  // worth of tile handles.
  EXPECT_LE(after.id(), before.id() + 64)
      << "evicted factors must return their handle slots";
  rt.release_data(after);
}

// Satellite of the failure-domain hardening PR: no runtime in this suite
// may have leaked a tile-handle slot through HandleLease::release().
TEST(HandleHygiene, NoHandleLeakedAcrossTheWholeSuite) {
  EXPECT_EQ(rt::Runtime::total_handles_leaked(), 0);
}

}  // namespace
