// Failure-domain tests: every error path driven on purpose through the
// deterministic fault-injection sites (common/fault.hpp). Covered sites:
//   tile.potrf.pivot, tlr.potrf.pivot, engine.factor, engine.qmc,
//   engine.submit, engine.register, ep.sweep, vecchia.fit, rt.trace
// plus the external cancel token, the query deadline, the per-query Status
// of batched confidence-region detection, and the FactorCache in-flight
// takeover under a failing factorization.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "core/excursion.hpp"
#include "engine/cholesky_factor.hpp"
#include "engine/factor_cache.hpp"
#include "engine/pmvn_engine.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "linalg/matrix.hpp"
#include "runtime/runtime.hpp"
#include "stats/covariance.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tiled_potrf.hpp"

namespace {

using namespace parmvn;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct SpatialProblem {
  geo::LocationSet locs;
  std::shared_ptr<stats::ExponentialKernel> kernel;
  std::shared_ptr<geo::KernelCovGenerator> cov;

  explicit SpatialProblem(i64 side, double range = 0.2)
      : locs(geo::apply_permutation(
            geo::regular_grid(side, side),
            geo::morton_order(geo::regular_grid(side, side)))),
        kernel(std::make_shared<stats::ExponentialKernel>(1.0, range)),
        cov(std::make_shared<geo::KernelCovGenerator>(locs, kernel, 1e-6)) {}

  [[nodiscard]] i64 n() const { return cov->rows(); }
};

engine::EngineOptions small_opts() {
  engine::EngineOptions opts;
  opts.samples_per_shift = 150;
  opts.shifts = 4;
  opts.sampler = stats::SamplerKind::kRichtmyer;
  return opts;
}

std::shared_ptr<const engine::CholeskyFactor> dense_factor(
    rt::Runtime& rt, const SpatialProblem& pb, i64 tile = 16) {
  std::vector<i64> identity(static_cast<std::size_t>(pb.n()));
  std::iota(identity.begin(), identity.end(), i64{0});
  const engine::FactorSpec spec{engine::FactorKind::kDense, tile, 0.0, -1};
  return std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity, spec));
}

// ---------------------------------------------------------------- fault lib

TEST(FaultLib, PlanCountsHitsAndTripsTheScheduledWindow) {
  fault::arm("test.site", /*first_hit=*/2, /*trips=*/2);
  int threw = 0;
  for (int i = 0; i < 5; ++i) {
    try {
      PARMVN_FAULT_POINT("test.site");
    } catch (const Error& e) {
      ++threw;
      EXPECT_NE(std::string(e.what()).find("test.site"), std::string::npos);
    }
  }
  EXPECT_EQ(threw, 2) << "hits 2 and 3 trip, 1/4/5 pass";
  EXPECT_EQ(fault::hits("test.site"), 5);
  EXPECT_EQ(fault::trips("test.site"), 2);
  fault::disarm("test.site");
  EXPECT_EQ(fault::hits("test.site"), 0);
  EXPECT_NO_THROW(PARMVN_FAULT_POINT("test.site"));
}

TEST(FaultLib, ScopedFaultDisarmsOnScopeExit) {
  {
    const fault::ScopedFault f("test.scoped");
    EXPECT_THROW(PARMVN_FAULT_POINT("test.scoped"), Error);
    EXPECT_NO_THROW(PARMVN_FAULT_POINT("test.scoped"));  // plan spent
  }
  EXPECT_NO_THROW(PARMVN_FAULT_POINT("test.scoped"));
  EXPECT_EQ(fault::hits("test.scoped"), 0) << "plan gone after scope exit";
}

TEST(FaultLib, UnarmedSitesNeverPayThePlanLookup) {
  // With no plan armed anywhere, the macro must not even take the mutex —
  // observable as hits() staying zero for a site that was never armed.
  fault::disarm_all();
  PARMVN_FAULT_POINT("test.cold");
  EXPECT_EQ(fault::hits("test.cold"), 0);
}

// ------------------------------------------------------------ cancel token

TEST(Cancel, PendingTasksBecomeNoOpsAndRuntimeStaysReusable) {
  rt::Runtime rt(2);
  std::atomic<int> gates_entered{0};
  std::atomic<bool> release_gates{false};
  std::atomic<int> ran{0};
  // Park both workers so the queued work cannot start before cancel().
  for (int g = 0; g < 2; ++g)
    rt.submit("gate", {}, [&] {
      gates_entered.fetch_add(1);
      while (!release_gates.load()) std::this_thread::yield();
    });
  while (gates_entered.load() < 2) std::this_thread::yield();
  for (int i = 0; i < 64; ++i)
    rt.submit("work", {}, [&] { ran.fetch_add(1); });

  rt.cancel();
  EXPECT_TRUE(rt.cancel_requested());
  release_gates.store(true);
  EXPECT_NO_THROW(rt.wait_all()) << "cancel is not an error";
  EXPECT_EQ(ran.load(), 0) << "queued tasks were skipped";
  EXPECT_FALSE(rt.cancel_requested()) << "flag clears at the epoch boundary";

  // The runtime is reusable after a cancelled epoch.
  for (int i = 0; i < 8; ++i)
    rt.submit("work2", {}, [&] { ran.fetch_add(1); });
  rt.wait_all();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(rt.handles_leaked(), 0);
}

TEST(Cancel, InlineRuntimeSkipsSubmitsAfterCancel) {
  rt::Runtime rt(0);
  int ran = 0;
  rt.cancel();
  rt.submit("work", {}, [&] { ++ran; });
  EXPECT_EQ(ran, 0);
  rt.wait_all();  // clears the flag
  rt.submit("work", {}, [&] { ++ran; });
  EXPECT_EQ(ran, 1);
}

// --------------------------------------------------- dense pivot + jitter

TEST(DenseFactor, PivotFaultPropagatesAsTypedError) {
  const SpatialProblem pb(6);
  rt::Runtime rt(2);
  {
    const fault::ScopedFault f("tile.potrf.pivot");
    EXPECT_THROW((void)dense_factor(rt, pb), Error);
  }
  // Recovery: the same runtime factors fine once the fault is gone.
  EXPECT_GT(dense_factor(rt, pb)->dim(), 0);
  EXPECT_EQ(rt.handles_leaked(), 0);
}

TEST(DenseFactor, JitterRetryRecoversFromATransientPivotFault) {
  const SpatialProblem pb(6);
  rt::Runtime rt(2);
  tile::TileMatrix a(rt, pb.n(), pb.n(), 12, tile::Layout::kLowerSymmetric);
  a.generate_async(rt, *pb.cov);
  rt.wait_all();

  const fault::ScopedFault f("tile.potrf.pivot", /*first_hit=*/1, /*trips=*/1);
  const tile::PotrfTiledInfo info = tile::potrf_tiled_safeguarded(rt, a, 2);
  EXPECT_EQ(info.retries, 1) << "attempt 1 tripped, attempt 2 clean";
  EXPECT_GT(info.diag_boost, 0.0);
}

TEST(DenseFactor, RetryZeroIsTheOldThrowingBehavior) {
  const SpatialProblem pb(5);
  rt::Runtime rt(2);
  tile::TileMatrix a(rt, pb.n(), pb.n(), 12, tile::Layout::kLowerSymmetric);
  a.generate_async(rt, *pb.cov);
  rt.wait_all();
  const fault::ScopedFault f("tile.potrf.pivot");
  EXPECT_THROW((void)tile::potrf_tiled_safeguarded(rt, a, 0), Error);
}

TEST(DenseFactor, GenuinelyIndefiniteMatrixExhaustsTheLadder) {
  // Eps-scale diagonal boosts must not paper over a structurally indefinite
  // matrix: the ladder exhausts and the typed error survives.
  rt::Runtime rt(1);
  la::Matrix sigma = la::Matrix::identity(8);
  sigma.view()(5, 5) = -1.0;
  const la::DenseGenerator gen(std::move(sigma));
  tile::TileMatrix a(rt, 8, 8, 4, tile::Layout::kLowerSymmetric);
  a.generate_async(rt, gen);
  rt.wait_all();
  EXPECT_THROW((void)tile::potrf_tiled_safeguarded(rt, a, 3), Error);
}

TEST(DenseFactor, JitterKnobWithoutARetryIsBitwiseFree) {
  // jitter_retries > 0 with a clean factorization never perturbs anything:
  // the engine must produce bit-identical results either way.
  const SpatialProblem pb(6);
  rt::Runtime rt(2);
  std::vector<i64> identity(static_cast<std::size_t>(pb.n()));
  std::iota(identity.begin(), identity.end(), i64{0});
  engine::FactorSpec plain{engine::FactorKind::kDense, 16, 0.0, -1};
  engine::FactorSpec guarded = plain;
  guarded.jitter_retries = 3;

  const std::vector<double> a(static_cast<std::size_t>(pb.n()), -0.4);
  const std::vector<double> b(static_cast<std::size_t>(pb.n()), kInf);
  double probs[2];
  int i = 0;
  for (const engine::FactorSpec& spec : {plain, guarded}) {
    auto f = std::make_shared<const engine::CholeskyFactor>(
        engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity, spec));
    EXPECT_FALSE(f->degraded());
    const engine::PmvnEngine eng(rt, f, small_opts());
    probs[i++] = eng.evaluate_one({a, b, 7, false}).prob;
  }
  EXPECT_EQ(probs[0], probs[1]);
}

// ------------------------------------------------------- TLR degradation

TEST(TlrFactor, PersistentNonPdFallsBackToDenseWhenOptedIn) {
  const SpatialProblem pb(6);
  rt::Runtime rt(2);
  std::vector<i64> identity(static_cast<std::size_t>(pb.n()));
  std::iota(identity.begin(), identity.end(), i64{0});
  engine::FactorSpec spec{engine::FactorKind::kTlr, 12, 1e-7, -1};

  {
    // Trip every TLR pivot attempt: the built-in retry ladder exhausts.
    const fault::ScopedFault f("tlr.potrf.pivot", 1, 1000);
    EXPECT_THROW((void)engine::CholeskyFactor::factor_ordered(
                     rt, *pb.cov, identity, spec),
                 Error)
        << "without the opt-in, exhaustion stays a typed error";
  }
  {
    const fault::ScopedFault f("tlr.potrf.pivot", 1, 1000);
    spec.fallback = true;
    const engine::CholeskyFactor fb =
        engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity, spec);
    EXPECT_EQ(fb.kind(), engine::FactorKind::kDense)
        << "last rung of the ladder: the dense arm";
    EXPECT_TRUE(fb.degraded());
  }
  // No fault: the fallback knob alone must not change the arm.
  const engine::CholeskyFactor ok =
      engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity, spec);
  EXPECT_EQ(ok.kind(), engine::FactorKind::kTlr);
  EXPECT_FALSE(ok.degraded());
  EXPECT_EQ(rt.handles_leaked(), 0);
}

// -------------------------------------------- engine sweep failure paths

TEST(EngineFaults, EverySweepSiteReleasesHandlesAndLeavesEngineReusable) {
  // The distinct failure surfaces of one sweep round: the QMC task body
  // (engine.qmc, every arm), and on the per-pair update arms a host-side
  // submit (engine.submit) and handle registration itself
  // (engine.register). After each injected failure the engine must still
  // produce bit-identical results, and the round handles must have been
  // returned.
  const SpatialProblem pb(6);
  rt::Runtime rt(2);
  std::vector<i64> identity(static_cast<std::size_t>(pb.n()));
  std::iota(identity.begin(), identity.end(), i64{0});
  engine::FactorSpec vspec{engine::FactorKind::kVecchia, 16, 0.0, -1};
  vspec.vecchia_m = 6;
  const auto vecchia = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity, vspec));
  struct Arm {
    std::shared_ptr<const engine::CholeskyFactor> factor;
    std::vector<const char*> sites;
  };
  const std::vector<Arm> arms = {
      {dense_factor(rt, pb), {"engine.qmc", "engine.submit", "engine.register"}},
      {vecchia, {"engine.qmc"}}};
  const std::vector<double> a(static_cast<std::size_t>(pb.n()), -0.5);
  const std::vector<double> b(static_cast<std::size_t>(pb.n()), kInf);
  const engine::LimitSet query{a, b, 11, true};

  for (const Arm& arm : arms) {
    const engine::PmvnEngine eng(rt, arm.factor, small_opts());
    const engine::QueryResult baseline = eng.evaluate_one(query);
    for (const char* site : arm.sites) {
      const std::string where =
          std::string(site) + " kind=" +
          std::to_string(static_cast<int>(arm.factor->kind()));
      const rt::DataHandle before = rt.register_data();
      {
        const fault::ScopedFault f(site);
        EXPECT_THROW((void)eng.evaluate_one(query), Error) << where;
      }
      const engine::QueryResult after = eng.evaluate_one(query);
      EXPECT_EQ(after.prob, baseline.prob) << where;
      EXPECT_EQ(after.error3sigma, baseline.error3sigma) << where;
      ASSERT_EQ(after.prefix_prob.size(), baseline.prefix_prob.size())
          << where;
      for (std::size_t i = 0; i < baseline.prefix_prob.size(); ++i)
        EXPECT_EQ(after.prefix_prob[i], baseline.prefix_prob[i])
            << where << " prefix=" << i;
      const rt::DataHandle end = rt.register_data();
      EXPECT_LE(end.id(), before.id() + 64)
          << where << ": round handles must be released on the error path";
      rt.release_data(before);
      rt.release_data(end);
    }
  }
  EXPECT_EQ(rt.handles_leaked(), 0);
}

TEST(EngineFaults, FactorEntryFaultIsATypedError) {
  const SpatialProblem pb(5);
  rt::Runtime rt(1);
  const fault::ScopedFault f("engine.factor");
  EXPECT_THROW((void)dense_factor(rt, pb), Error);
}

// ------------------------------------------------------ EP tier demotion

TEST(EpScreen, SweepFaultDemotesToQmcInsteadOfFailingTheQuery) {
  const SpatialProblem pb(6);
  rt::Runtime rt(2);
  const auto factor = dense_factor(rt, pb);

  engine::EngineOptions untiered = small_opts();
  engine::EngineOptions tiered = untiered;
  tiered.tiered = true;

  const std::vector<double> a(static_cast<std::size_t>(pb.n()), -2.5);
  const std::vector<double> b(static_cast<std::size_t>(pb.n()), kInf);
  engine::LimitSet query{a, b, 5, false};
  query.decision = 0.5;  // far from the high probability: EP would decide it

  const engine::PmvnEngine eng_untiered(rt, factor, untiered);
  const engine::PmvnEngine eng_tiered(rt, factor, tiered);
  const engine::QueryResult via_qmc = eng_untiered.evaluate_one(query);

  // Sanity: without the fault, the tiered path screens this query out.
  const engine::QueryResult screened = eng_tiered.evaluate_one(query);
  ASSERT_EQ(screened.method, engine::EvalMethod::kEp);

  // Every EP sweep fails -> the query is demoted to the authoritative QMC
  // tier, bitwise equal to the untiered run (it only un-skips work).
  const fault::ScopedFault f("ep.sweep", 1, 1000);
  const engine::QueryResult demoted = eng_tiered.evaluate_one(query);
  EXPECT_EQ(demoted.method, engine::EvalMethod::kQmc);
  EXPECT_EQ(demoted.prob, via_qmc.prob);
  EXPECT_EQ(demoted.error3sigma, via_qmc.error3sigma);
}

// ------------------------------------------------------------- deadlines

TEST(Deadline, BatchRetiresWithPartialResultsInsteadOfRunningOver) {
  // 16 queries whose full budget takes far longer than the deadline: every
  // query must come back with at least one shift block (min_shifts on the
  // adaptive path), marked kDeadline, not converged — and nothing hangs or
  // aborts.
  const SpatialProblem pb(8);
  rt::Runtime rt(4);
  const auto factor = dense_factor(rt, pb);
  engine::EngineOptions opts;
  opts.samples_per_shift = 5000;
  opts.shifts = 32;
  opts.sampler = stats::SamplerKind::kRichtmyer;
  opts.deadline_ms = 1;
  const engine::PmvnEngine eng(rt, factor, opts);

  const std::vector<double> b(static_cast<std::size_t>(pb.n()), kInf);
  std::vector<std::vector<double>> lows;
  std::vector<engine::LimitSet> batch;
  for (int q = 0; q < 16; ++q) {
    lows.emplace_back(static_cast<std::size_t>(pb.n()),
                      -1.0 + 0.1 * static_cast<double>(q));
    batch.push_back({lows.back(), b, static_cast<u64>(q + 1), false});
  }
  const std::vector<engine::QueryResult> results = eng.evaluate(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t q = 0; q < results.size(); ++q) {
    const engine::QueryResult& res = results[q];
    EXPECT_EQ(res.method, engine::EvalMethod::kDeadline) << q;
    EXPECT_FALSE(res.converged) << q;
    EXPECT_GE(res.shifts_used, 1) << "always at least one block";
    EXPECT_LT(res.shifts_used, opts.shifts) << q;
    EXPECT_EQ(res.samples_used,
              static_cast<i64>(res.shifts_used) * opts.samples_per_shift);
    EXPECT_TRUE(std::isfinite(res.prob)) << q;
    EXPECT_GE(res.prob, 0.0);
    EXPECT_LE(res.prob, 1.0 + 1e-12);
  }

  // Adaptive: the first round sweeps min_shifts blocks before any check,
  // the deadline's included, so a deadline result carries a finite error
  // bar. abs_tol 0 and no decision threshold: nothing converges.
  engine::EngineOptions ada = opts;
  ada.adaptive = true;
  ada.min_shifts = 3;
  const std::vector<engine::QueryResult> partial =
      engine::PmvnEngine(rt, factor, ada).evaluate(batch);
  ASSERT_EQ(partial.size(), batch.size());
  for (std::size_t q = 0; q < partial.size(); ++q) {
    const engine::QueryResult& res = partial[q];
    EXPECT_EQ(res.method, engine::EvalMethod::kDeadline) << q;
    EXPECT_FALSE(res.converged) << q;
    EXPECT_GE(res.shifts_used, ada.min_shifts) << q;
    EXPECT_LT(res.shifts_used, ada.shifts) << q;
    EXPECT_TRUE(std::isfinite(res.error3sigma)) << q;
  }
  EXPECT_EQ(rt.handles_leaked(), 0);
}

TEST(Deadline, GenerousDeadlineMatchesTheFixedBudgetBitwise) {
  // The deadline reroutes the fixed-budget sweep through the round loop;
  // per-sample products are range-independent, so an unexpired deadline
  // must reproduce the deadline-free probabilities bitwise.
  const SpatialProblem pb(5);
  rt::Runtime rt(2);
  const auto factor = dense_factor(rt, pb);
  engine::EngineOptions off = small_opts();
  engine::EngineOptions on = off;
  on.deadline_ms = i64{1000} * 3600;  // one hour: never expires here

  const std::vector<double> a(static_cast<std::size_t>(pb.n()), -0.3);
  const std::vector<double> b(static_cast<std::size_t>(pb.n()), kInf);
  const engine::LimitSet query{a, b, 9, false};
  const engine::QueryResult r_off =
      engine::PmvnEngine(rt, factor, off).evaluate_one(query);
  const engine::QueryResult r_on =
      engine::PmvnEngine(rt, factor, on).evaluate_one(query);
  EXPECT_EQ(r_on.prob, r_off.prob);
  EXPECT_EQ(r_on.error3sigma, r_off.error3sigma);
  EXPECT_EQ(r_on.method, engine::EvalMethod::kQmc);
  EXPECT_EQ(r_on.shifts_used, off.shifts);
}

TEST(Deadline, TieredBatchUnderDeadlineStillAnswersEveryQuery) {
  const SpatialProblem pb(6);
  rt::Runtime rt(2);
  const auto factor = dense_factor(rt, pb);
  engine::EngineOptions opts;
  opts.samples_per_shift = 4000;
  opts.shifts = 16;
  opts.sampler = stats::SamplerKind::kRichtmyer;
  opts.tiered = true;
  opts.deadline_ms = 1;
  const engine::PmvnEngine eng(rt, factor, opts);

  const std::vector<double> b(static_cast<std::size_t>(pb.n()), kInf);
  std::vector<std::vector<double>> lows;
  std::vector<engine::LimitSet> batch;
  for (int q = 0; q < 8; ++q) {
    lows.emplace_back(static_cast<std::size_t>(pb.n()), -2.0 + 0.3 * q);
    engine::LimitSet ls{lows.back(), b, static_cast<u64>(q + 1), false};
    ls.decision = 0.5;
    batch.push_back(ls);
  }
  const std::vector<engine::QueryResult> results = eng.evaluate(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (const engine::QueryResult& res : results) {
    EXPECT_TRUE(std::isfinite(res.prob));
    // Every query was answered by some tier: the EP screen, a (possibly
    // partial) QMC sweep, or a deadline stop with >= 1 block behind it.
    if (res.method != engine::EvalMethod::kEp) {
      EXPECT_GE(res.shifts_used, 1);
    }
  }
}

// ---------------------------------------- per-query status in excursion

TEST(CrdStatus, FailingOrderingGroupDoesNotAbortItsSiblings) {
  // kAbove and kBelow produce opposite marginal orderings -> two factor
  // groups. Failing the first group's factorization must leave the second
  // group's result intact and typed-mark the first.
  const SpatialProblem pb(5);
  rt::Runtime rt(2);
  // A strictly monotone mean ramp: the kAbove and kBelow marginal orderings
  // are exact reverses of each other, so the two queries land in two
  // distinct factor groups (a constant mean would tie every marginal and
  // collapse them into one).
  std::vector<double> mean(static_cast<std::size_t>(pb.n()));
  for (std::size_t i = 0; i < mean.size(); ++i)
    mean[i] = 0.02 * static_cast<double>(i);
  core::CrdOptions opts;
  opts.tile = 16;
  opts.pmvn.samples_per_shift = 200;
  opts.pmvn.shifts = 4;
  opts.pmvn.sampler = stats::SamplerKind::kRichtmyer;

  std::vector<core::CrdQuery> queries(2);
  queries[0] = {0.1, 0.05, core::CrdDirection::kAbove, {}};
  queries[1] = {0.1, 0.05, core::CrdDirection::kBelow, {}};

  const fault::ScopedFault f("engine.factor", /*first_hit=*/1, /*trips=*/1);
  const std::vector<core::CrdResult> results =
      core::detect_confidence_regions(rt, *pb.cov, mean, opts, queries);
  ASSERT_EQ(results.size(), 2u);

  int failed = 0, succeeded = 0;
  for (const core::CrdResult& res : results) {
    EXPECT_FALSE(res.marginal.empty()) << "marginals precede any failure";
    EXPECT_FALSE(res.order.empty());
    if (res.status.ok()) {
      ++succeeded;
      EXPECT_EQ(static_cast<i64>(res.confidence.size()), pb.n());
      EXPECT_EQ(static_cast<i64>(res.region.size()), pb.n());
    } else {
      ++failed;
      EXPECT_EQ(res.status.code, StatusCode::kFactorFailed);
      EXPECT_NE(res.status.message.find("fault injected"), std::string::npos);
      EXPECT_TRUE(res.region.empty());
    }
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(succeeded, 1);
  EXPECT_EQ(rt.handles_leaked(), 0);
}

TEST(CrdStatus, SweepFailureIsEvalFailedAndSingleQueryStillThrows) {
  const SpatialProblem pb(5);
  rt::Runtime rt(2);
  const std::vector<double> mean(static_cast<std::size_t>(pb.n()), 0.0);
  core::CrdOptions opts;
  opts.tile = 16;
  opts.pmvn.samples_per_shift = 200;
  opts.pmvn.shifts = 4;
  opts.pmvn.sampler = stats::SamplerKind::kRichtmyer;
  const std::vector<core::CrdQuery> queries(
      1, {0.1, 0.05, core::CrdDirection::kAbove, {}});

  {
    const fault::ScopedFault f("engine.qmc", 1, 1000);
    const std::vector<core::CrdResult> results =
        core::detect_confidence_regions(rt, *pb.cov, mean, opts, queries);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status.code, StatusCode::kEvalFailed);
  }
  {
    // The single-query wrapper keeps its throwing contract.
    const fault::ScopedFault f("engine.qmc", 1, 1000);
    EXPECT_THROW((void)core::detect_confidence_region(rt, *pb.cov, mean, opts),
                 Error);
  }
  // And the same call succeeds once the fault is gone.
  const core::CrdResult ok =
      core::detect_confidence_region(rt, *pb.cov, mean, opts);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(static_cast<i64>(ok.region.size()), pb.n());
}

// -------------------------------------------------- factor-cache takeover

TEST(FactorCache, WaiterTakesOverWhenTheInFlightFactorizationFails) {
  // Two threads race for one key while the first factorization attempt is
  // scheduled to fail: exactly one caller sees the typed error, the other
  // takes over and gets a valid factor, and the cache ends with one entry.
  const SpatialProblem pb(5);
  rt::Runtime rt(2);
  std::vector<i64> identity(static_cast<std::size_t>(pb.n()));
  std::iota(identity.begin(), identity.end(), i64{0});
  const engine::FactorSpec spec{engine::FactorKind::kDense, 16, 0.0, -1};
  engine::FactorCache cache(4);

  const fault::ScopedFault f("engine.factor", /*first_hit=*/1, /*trips=*/1);
  std::atomic<int> errors{0};
  std::atomic<int> good{0};
  std::vector<std::thread> threads;
  threads.reserve(2);
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      try {
        const auto factor = cache.get_or_factor(rt, *pb.cov, identity, spec);
        if (factor != nullptr && factor->dim() == pb.n()) good.fetch_add(1);
      } catch (const Error&) {
        errors.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 1) << "exactly the scheduled failure";
  EXPECT_EQ(good.load(), 1) << "the other caller recovered";
  EXPECT_EQ(cache.size(), 1u);
  // The takeover counter records the waiter-observed-failure schedule (the
  // loser may instead have arrived after cleanup, a plain second miss), so
  // the deterministic claim is the bound, not the exact schedule — see the
  // concurrent-site note in common/fault.hpp.
  EXPECT_LE(cache.stats().in_flight_takeovers, 1);
  EXPECT_EQ(cache.stats().misses, 2)
      << "both callers paid a factorization (a takeover is also a miss)";
  // The key is not wedged: a later call hits the recovered entry.
  (void)cache.get_or_factor(rt, *pb.cov, identity, spec);
  EXPECT_GE(cache.stats().hits, 1);
}

// ------------------------------------------------------- vecchia + trace

TEST(VecchiaFactor, FitFaultPropagatesAndRebuildSucceeds) {
  const SpatialProblem pb(5);
  rt::Runtime rt(2);
  std::vector<i64> identity(static_cast<std::size_t>(pb.n()));
  std::iota(identity.begin(), identity.end(), i64{0});
  engine::FactorSpec spec{engine::FactorKind::kVecchia, 16, 0.0, -1};
  spec.vecchia_m = 6;
  {
    const fault::ScopedFault f("vecchia.fit");
    EXPECT_THROW((void)engine::CholeskyFactor::factor_ordered(
                     rt, *pb.cov, identity, spec),
                 Error);
  }
  const engine::CholeskyFactor ok =
      engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity, spec);
  EXPECT_EQ(ok.kind(), engine::FactorKind::kVecchia);
  EXPECT_EQ(rt.handles_leaked(), 0);
}

TEST(Trace, RecordFaultDisablesTracingInsteadOfFailingTheEpoch) {
  rt::Runtime rt(2, /*enable_trace=*/true);
  std::atomic<int> ran{0};
  {
    const fault::ScopedFault f("rt.trace", /*first_hit=*/1, /*trips=*/1);
    for (int i = 0; i < 8; ++i)
      rt.submit("traced", {}, [&] { ran.fetch_add(1); });
    EXPECT_NO_THROW(rt.wait_all())
        << "a trace bookkeeping failure must never fail user work";
  }
  EXPECT_EQ(ran.load(), 8) << "every task still ran";
  EXPECT_LT(rt.trace().size(), 8u)
      << "the failed record is lost and tracing is disabled";
}

// ----------------------------------------------------------- leak audit

TEST(HandleHygiene, NoHandleLeakedAcrossTheWholeSuite) {
  EXPECT_EQ(rt::Runtime::total_handles_leaked(), 0);
}

}  // namespace
