// Tests for confidence-region detection (Algorithm 1) and MC validation:
// sweep vs the literal Algorithm 1 loop, set-theoretic properties, option
// validation, dense vs TLR, and the
// p_hat(alpha) ~ 1-alpha calibration check of Section V-C.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/excursion.hpp"
#include "core/mc_validation.hpp"
#include "engine/pmvn_engine.hpp"
#include "geo/covgen.hpp"
#include "geo/field.hpp"
#include "geo/geometry.hpp"
#include "linalg/potrf.hpp"
#include "stats/covariance.hpp"
#include "stats/normal.hpp"

namespace {

using namespace parmvn;
using core::CrdMode;
using core::CrdOptions;
using core::CrdResult;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct TestField {
  geo::LocationSet locs;
  std::shared_ptr<geo::KernelCovGenerator> cov;
  std::vector<double> mean;
};

TestField make_field(i64 nx, i64 ny, double range, u64 seed) {
  TestField f;
  f.locs = geo::regular_grid(nx, ny);
  auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, range);
  f.cov = std::make_shared<geo::KernelCovGenerator>(f.locs, kernel, 1e-6);
  // A smooth deterministic mean with a bump: creates a clear excursion
  // region around the bump.
  f.mean.resize(f.locs.size());
  for (std::size_t i = 0; i < f.locs.size(); ++i) {
    const double dx = f.locs[i].x - 0.3;
    const double dy = f.locs[i].y - 0.6;
    // Peak 3.4 sd above the threshold of 1.0: marginals reach ~0.99 at the
    // bump so confidence regions at 1-alpha = 0.9 are non-empty.
    f.mean[i] = 3.4 * std::exp(-12.0 * (dx * dx + dy * dy));
    if (seed != 0) f.mean[i] += 0.05 * std::sin(17.0 * f.locs[i].x);
  }
  return f;
}

CrdOptions base_opts() {
  CrdOptions o;
  o.threshold = 1.0;
  o.alpha = 0.1;
  o.tile = 16;
  o.pmvn.samples_per_shift = 400;
  o.pmvn.shifts = 5;
  o.pmvn.sampler = stats::SamplerKind::kRichtmyer;
  return o;
}

TEST(Crd, MarginalsAndOrderingAreCorrect) {
  const TestField f = make_field(8, 8, 0.15, 1);
  rt::Runtime rt(2);
  const CrdOptions opts = base_opts();
  const CrdResult r = core::detect_confidence_region(rt, *f.cov, f.mean, opts);

  ASSERT_EQ(r.marginal.size(), 64u);
  // Marginal probabilities match 1 - Phi((u - mean)/sd) by hand.
  for (std::size_t i = 0; i < 64; ++i) {
    const double sd = std::sqrt(f.cov->entry(static_cast<i64>(i),
                                             static_cast<i64>(i)));
    const double expect =
        1.0 - stats::norm_cdf((opts.threshold - f.mean[i]) / sd);
    EXPECT_NEAR(r.marginal[i], expect, 1e-12);
  }
  // Order is descending in marginal.
  for (std::size_t k = 1; k < r.order.size(); ++k)
    EXPECT_GE(r.marginal[static_cast<std::size_t>(r.order[k - 1])],
              r.marginal[static_cast<std::size_t>(r.order[k])]);
}

TEST(Crd, SweepEqualsNaiveStrategy) {
  // The single-sweep prefix probabilities must equal the literal
  // Algorithm 1 loop — one PMVN per prefix on a dense factor of the sweep's
  // ordering (same sampler/seed -> bitwise-equal chains).
  const TestField f = make_field(5, 5, 0.2, 2);
  rt::Runtime rt(2);
  CrdOptions opts = base_opts();
  opts.pmvn.samples_per_shift = 150;
  opts.pmvn.shifts = 4;
  const CrdResult rs = core::detect_confidence_region(rt, *f.cov, f.mean, opts);

  const i64 n = static_cast<i64>(f.mean.size());
  const engine::FactorSpec spec{engine::FactorKind::kDense, opts.tile, 0.0,
                                -1};
  const engine::PmvnEngine eng(
      rt,
      std::make_shared<const engine::CholeskyFactor>(
          engine::CholeskyFactor::factor_ordered(rt, *f.cov, rs.order, spec)),
      opts.pmvn);
  const std::vector<double> b(static_cast<std::size_t>(n), kInf);
  ASSERT_EQ(static_cast<i64>(rs.prefix_prob.size()), n);
  std::vector<double> naive(static_cast<std::size_t>(n));
  for (i64 k = 0; k < n; ++k) {
    // Prefix k keeps the first k+1 ordered limits; the rest are (-inf, inf)
    // and contribute an exact factor 1.
    std::vector<double> a(static_cast<std::size_t>(n), -kInf);
    for (i64 i = 0; i <= k; ++i) {
      const i64 src = rs.order[static_cast<std::size_t>(i)];
      a[static_cast<std::size_t>(i)] =
          (opts.threshold - f.mean[static_cast<std::size_t>(src)]) /
          std::sqrt(f.cov->entry(src, src));
    }
    naive[static_cast<std::size_t>(k)] =
        eng.evaluate_one({a, b, opts.pmvn.seed, false}).prob;
    EXPECT_NEAR(rs.prefix_prob[static_cast<std::size_t>(k)],
                naive[static_cast<std::size_t>(k)], 1e-12)
        << "k=" << k;
  }
  EXPECT_EQ(rs.region_size, core::region_size_at_level(naive, 1.0 - opts.alpha));
}

TEST(Crd, BadOptionsRejectedBeforeFactoring) {
  // Nonsense integration options must throw typed before any Cholesky is
  // paid for — and before one lands in the cache.
  const TestField f = make_field(5, 5, 0.2, 10);
  rt::Runtime rt(2);
  CrdOptions opts = base_opts();
  opts.pmvn.deadline_ms = -1;
  engine::FactorCache cache(2);
  const core::CrdQuery query{opts.threshold, opts.alpha, opts.direction,
                             std::nullopt};
  EXPECT_THROW((void)core::detect_confidence_regions(rt, *f.cov, f.mean, opts,
                                                     {&query, 1}, &cache),
               Error);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Crd, RegionShrinksWithConfidence) {
  const TestField f = make_field(10, 10, 0.15, 3);
  rt::Runtime rt(4);
  i64 prev_size = 101;
  for (double alpha : {0.5, 0.2, 0.05, 0.01}) {
    CrdOptions opts = base_opts();
    opts.alpha = alpha;
    opts.pmvn.seed = 77;  // same chains across alpha values
    const CrdResult r =
        core::detect_confidence_region(rt, *f.cov, f.mean, opts);
    EXPECT_LE(r.region_size, prev_size) << "alpha=" << alpha;
    prev_size = r.region_size;
  }
}

TEST(Crd, RegionIsSubsetOfMarginalSet) {
  // F+(s) <= pM(s): anywhere in the confidence region, the marginal
  // exceedance probability must also be >= 1 - alpha.
  const TestField f = make_field(9, 9, 0.2, 4);
  rt::Runtime rt(2);
  const CrdOptions opts = base_opts();
  const CrdResult r = core::detect_confidence_region(rt, *f.cov, f.mean, opts);
  EXPECT_GT(r.region_size, 0) << "bump should produce a region";
  EXPECT_LT(r.region_size, 81) << "region must not cover everything";
  for (std::size_t i = 0; i < r.region.size(); ++i) {
    EXPECT_LE(r.confidence[i], r.marginal[i] + 1e-9) << i;
    if (r.region[i] != 0) {
      EXPECT_GE(r.marginal[i], 1.0 - opts.alpha - 1e-9);
    }
  }
}

TEST(Crd, ConfidenceFunctionMonotoneAlongOrder) {
  const TestField f = make_field(8, 8, 0.1, 5);
  rt::Runtime rt(2);
  const CrdResult r =
      core::detect_confidence_region(rt, *f.cov, f.mean, base_opts());
  double prev = 1.0;
  for (const i64 idx : r.order) {
    const double c = r.confidence[static_cast<std::size_t>(idx)];
    EXPECT_LE(c, prev + 1e-15);
    prev = c;
  }
}

TEST(Crd, TlrModeMatchesDenseMode) {
  const TestField f = make_field(10, 10, 0.2, 6);
  rt::Runtime rt(4);
  CrdOptions dense = base_opts();
  dense.tile = 25;
  CrdOptions tlr = dense;
  tlr.mode = CrdMode::kTlr;
  tlr.tlr_tol = 1e-6;
  const CrdResult rd = core::detect_confidence_region(rt, *f.cov, f.mean, dense);
  const CrdResult rtl = core::detect_confidence_region(rt, *f.cov, f.mean, tlr);
  ASSERT_EQ(rd.prefix_prob.size(), rtl.prefix_prob.size());
  // The paper's observation: at accuracy <= 1e-3 the difference is
  // negligible for the application; at 1e-6 it should be tiny.
  for (std::size_t i = 0; i < rd.prefix_prob.size(); ++i)
    EXPECT_NEAR(rd.prefix_prob[i], rtl.prefix_prob[i], 5e-4) << i;
  EXPECT_NEAR(static_cast<double>(rd.region_size),
              static_cast<double>(rtl.region_size), 2.0);
}

TEST(Crd, BelowDirectionMatchesDirectlyNegatedField) {
  // E-_{u,alpha}(X) == E+_{-u,alpha}(-X): running the detector with
  // direction=kBelow must reproduce, bitwise, a kAbove run on the manually
  // negated mean field with the negated threshold (the covariance is
  // reflection-invariant).
  const TestField f = make_field(7, 7, 0.18, 8);
  rt::Runtime rt(2);
  CrdOptions below = base_opts();
  // P(X < 2) ~ 0.977 on the flats (mean ~ 0) and ~ 0.08 at the bump peak:
  // the below-region is the flats, disjoint from the bump's above-region.
  below.threshold = 2.0;
  below.direction = core::CrdDirection::kBelow;
  const CrdResult rb = core::detect_confidence_region(rt, *f.cov, f.mean, below);

  std::vector<double> neg_mean(f.mean.size());
  for (std::size_t i = 0; i < f.mean.size(); ++i) neg_mean[i] = -f.mean[i];
  CrdOptions above = below;
  above.direction = core::CrdDirection::kAbove;
  above.threshold = -below.threshold;
  const CrdResult ra =
      core::detect_confidence_region(rt, *f.cov, neg_mean, above);

  ASSERT_EQ(rb.order.size(), ra.order.size());
  EXPECT_EQ(rb.order, ra.order);
  EXPECT_EQ(rb.region, ra.region);
  EXPECT_EQ(rb.region_size, ra.region_size);
  for (std::size_t i = 0; i < rb.marginal.size(); ++i) {
    EXPECT_EQ(rb.marginal[i], ra.marginal[i]) << i;
    EXPECT_EQ(rb.confidence[i], ra.confidence[i]) << i;
  }
  for (std::size_t i = 0; i < rb.prefix_prob.size(); ++i)
    EXPECT_EQ(rb.prefix_prob[i], ra.prefix_prob[i]) << i;
  // And the below-region is a genuinely different object from the above-
  // region of the *original* field at the same threshold.
  EXPECT_GT(rb.region_size, 0) << "low-lying flats should be detected";
}

TEST(Crd, BatchedQueriesMatchSingleCallsBitwise) {
  // detect_confidence_regions must be an invisible serving optimisation:
  // each query's result equals the dedicated single-query call with the
  // same parameters and seed, and queries sharing an ordering share one
  // cached factor.
  const TestField f = make_field(8, 8, 0.15, 9);
  rt::Runtime rt(4);
  const CrdOptions opts = base_opts();

  std::vector<core::CrdQuery> queries;
  queries.push_back({0.8, 0.1, core::CrdDirection::kAbove, std::nullopt});
  queries.push_back({1.0, 0.1, core::CrdDirection::kAbove, std::nullopt});
  queries.push_back({1.0, 0.02, core::CrdDirection::kAbove, std::nullopt});
  queries.push_back({1.2, 0.1, core::CrdDirection::kAbove, u64{555}});
  queries.push_back({-0.4, 0.1, core::CrdDirection::kBelow, std::nullopt});

  engine::FactorCache cache(4);
  const std::vector<CrdResult> batched =
      core::detect_confidence_regions(rt, *f.cov, f.mean, opts, queries,
                                      &cache);
  ASSERT_EQ(batched.size(), queries.size());
  // Unit-variance field: every kAbove ordering coincides, kBelow differs ->
  // exactly two factorizations.
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.size(), 2u);

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    CrdOptions single = opts;
    single.threshold = queries[qi].threshold;
    single.alpha = queries[qi].alpha;
    single.direction = queries[qi].direction;
    if (queries[qi].seed) single.pmvn.seed = *queries[qi].seed;
    const CrdResult alone =
        core::detect_confidence_region(rt, *f.cov, f.mean, single);
    EXPECT_EQ(batched[qi].order, alone.order) << qi;
    EXPECT_EQ(batched[qi].region, alone.region) << qi;
    EXPECT_EQ(batched[qi].region_size, alone.region_size) << qi;
    ASSERT_EQ(batched[qi].prefix_prob.size(), alone.prefix_prob.size()) << qi;
    for (std::size_t i = 0; i < alone.prefix_prob.size(); ++i)
      EXPECT_EQ(batched[qi].prefix_prob[i], alone.prefix_prob[i])
          << "query=" << qi << " prefix=" << i;
    for (std::size_t i = 0; i < alone.confidence.size(); ++i)
      EXPECT_EQ(batched[qi].confidence[i], alone.confidence[i])
          << "query=" << qi << " loc=" << i;
  }

  // A repeated batch is served entirely from the cache.
  const std::vector<CrdResult> again =
      core::detect_confidence_regions(rt, *f.cov, f.mean, opts, queries,
                                      &cache);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_GE(cache.stats().hits, 2);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_TRUE(again[qi].factor_cached) << qi;
    EXPECT_EQ(again[qi].prefix_prob.back(),
              batched[qi].prefix_prob.back())
        << qi;
  }
}

TEST(RegionSizeAtLevel, HandlesEnvelopeAndEdges) {
  const std::vector<double> prefix{0.99, 0.95, 0.90, 0.92, 0.40};
  // Monotone envelope: 0.99 0.95 0.90 0.90 0.40.
  EXPECT_EQ(core::region_size_at_level(prefix, 0.999), 0);
  EXPECT_EQ(core::region_size_at_level(prefix, 0.95), 2);
  EXPECT_EQ(core::region_size_at_level(prefix, 0.90), 4);
  EXPECT_EQ(core::region_size_at_level(prefix, 0.10), 5);
}

TEST(McValidation, CalibratedAgainstTruth) {
  // End-to-end Section V-C: detect regions, then the MC estimate of the
  // joint exceedance probability of the detected region should track
  // 1 - alpha across levels.
  const TestField f = make_field(9, 9, 0.25, 7);
  rt::Runtime rt(4);
  CrdOptions opts = base_opts();
  opts.pmvn.samples_per_shift = 1500;
  opts.pmvn.shifts = 10;
  const CrdResult r = core::detect_confidence_region(rt, *f.cov, f.mean, opts);

  // Rebuild the ordered correlation Cholesky exactly as the detector did.
  const geo::CorrelationGenerator corr(*f.cov);
  const geo::PermutedGenerator permuted(corr, r.order);
  la::Matrix l = geo::dense_from_generator(permuted);
  la::potrf_lower_or_throw(l.view());

  const i64 n = static_cast<i64>(f.mean.size());
  std::vector<double> a_ord(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    const i64 src = r.order[static_cast<std::size_t>(i)];
    const double sd = std::sqrt(f.cov->entry(src, src));
    a_ord[static_cast<std::size_t>(i)] =
        (opts.threshold - f.mean[static_cast<std::size_t>(src)]) / sd;
  }

  const std::vector<double> levels{0.5, 0.7, 0.9};
  const core::McValidationResult v = core::validate_region_mc(
      l.view(), a_ord, r.prefix_prob, levels, 50000, 99);
  ASSERT_EQ(v.p_hat.size(), levels.size());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    // MC error at N=50k is ~0.007 at 3 sigma; allow QMC bias on top.
    EXPECT_NEAR(v.p_hat[i], levels[i], 0.03)
        << "level=" << levels[i] << " (paper Fig. 1, third column)";
  }
}

TEST(McValidation, EmptyRegionTriviallyExceeded) {
  la::Matrix l = la::Matrix::identity(4);
  const std::vector<double> a(4, 5.0);           // nearly impossible limits
  const std::vector<double> prefix{0.1, 0.01, 0.001, 0.0001};
  const std::vector<double> levels{0.95};
  const core::McValidationResult v =
      core::validate_region_mc(l.view(), a, prefix, levels, 1000, 3);
  EXPECT_EQ(v.p_hat[0], 1.0);  // region size 0
}

}  // namespace
