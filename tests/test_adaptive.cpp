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
//    more than the fixed budget, and reports error3sigma <= abs_tol;
//  * decision-aware early stop never flips a confidence-region side versus
//    the full-budget sweep;
//  * a single shift block reports *infinite* error, not the old silent 0.0;
//  * evicted factors return their runtime handle slots (HandleLease), so a
//    factor->evict serving loop keeps the handle table bounded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "common/contracts.hpp"
#include "core/excursion.hpp"
#include "core/pmvn.hpp"
#include "core/sov.hpp"
#include "engine/cholesky_factor.hpp"
#include "engine/factor_cache.hpp"
#include "engine/pmvn_engine.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "linalg/matrix.hpp"
#include "runtime/runtime.hpp"
#include "stats/covariance.hpp"

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
      EXPECT_DOUBLE_EQ(got[i], reference[i])
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
  EXPECT_DOUBLE_EQ(capped.prob, ref.prob);
  EXPECT_DOUBLE_EQ(capped.error3sigma, ref.error3sigma);
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

  core::SovOptions sov;
  sov.samples_per_shift = 100;
  sov.shifts = 1;
  const core::SovResult res = core::mvn_probability(sigma.view(), pb.a, pb.b,
                                                    sov);
  EXPECT_TRUE(std::isinf(res.error3sigma));
  EXPECT_GT(res.prob, 0.0);

  rt::Runtime rt(2);
  engine::EngineOptions eo;
  eo.samples_per_shift = 100;
  eo.shifts = 1;
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
