// Tests for the factor-once / evaluate-many engine layer: CholeskyFactor
// construction and borrowing, the batched PmvnEngine's batch-transparency
// contract (batched results bitwise-identical to single-query evaluation),
// and FactorCache LRU/keying semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "core/pmvn.hpp"
#include "engine/cholesky_factor.hpp"
#include "engine/factor_cache.hpp"
#include "engine/pmvn_engine.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
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

TEST(CholeskyFactor, FactorOrderedRecordsMetadata) {
  const SpatialProblem pb(6);
  rt::Runtime rt(2);
  std::vector<i64> order(static_cast<std::size_t>(pb.n()));
  std::iota(order.rbegin(), order.rend(), i64{0});  // reversed
  const engine::FactorSpec spec{engine::FactorKind::kDense, 12, 0.0, -1};
  const engine::CholeskyFactor f =
      engine::CholeskyFactor::factor_ordered(rt, *pb.cov, order, spec);
  EXPECT_EQ(f.kind(), engine::FactorKind::kDense);
  EXPECT_EQ(f.dim(), pb.n());
  EXPECT_EQ(f.tile_size(), 12);
  EXPECT_EQ(f.order(), order);
  ASSERT_EQ(static_cast<i64>(f.sd().size()), pb.n());
  for (i64 i = 0; i < pb.n(); ++i)
    EXPECT_NEAR(f.sd()[static_cast<std::size_t>(i)],
                std::sqrt(pb.cov->entry(i, i)), 1e-15);
  EXPECT_GT(f.factor_seconds(), 0.0);
}

TEST(CholeskyFactor, BorrowedDenseMatchesOwnedFactor) {
  // A borrowed factor and an owned factor of the same matrix must drive the
  // engine to bitwise-identical results.
  const SpatialProblem pb(6);
  rt::Runtime rt(2);
  const i64 n = pb.n();
  std::vector<i64> identity(static_cast<std::size_t>(n));
  std::iota(identity.begin(), identity.end(), i64{0});
  const engine::FactorSpec spec{engine::FactorKind::kDense, 16, 0.0, -1};
  auto owned = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity, spec));

  // Rebuild the same standardised matrix through the public tile path.
  const geo::CorrelationGenerator corr(*pb.cov);
  tile::TileMatrix l(rt, n, n, 16, tile::Layout::kLowerSymmetric);
  l.generate_async(rt, corr);
  rt.wait_all();
  tile::potrf_tiled(rt, l);
  auto borrowed = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::borrow_dense(l));
  EXPECT_EQ(borrowed->factor_seconds(), 0.0);

  const std::vector<double> a(static_cast<std::size_t>(n), -0.4);
  const std::vector<double> b(static_cast<std::size_t>(n), kInf);
  const engine::LimitSet q{a, b, 99, false};
  const engine::PmvnEngine eng_owned(rt, owned, small_opts());
  const engine::PmvnEngine eng_borrowed(rt, borrowed, small_opts());
  EXPECT_DOUBLE_EQ(eng_owned.evaluate_one(q).prob,
                   eng_borrowed.evaluate_one(q).prob);
}

TEST(PmvnEngine, BatchedMatchesSingleQueryBitwise) {
  // The batch-transparency contract: every query of a fused batch must be
  // bitwise identical to evaluating that query alone with the same seed.
  const SpatialProblem pb(8);
  rt::Runtime rt(4);
  const i64 n = pb.n();
  std::vector<i64> identity(static_cast<std::size_t>(n));
  std::iota(identity.begin(), identity.end(), i64{0});
  for (const engine::FactorKind kind :
       {engine::FactorKind::kDense, engine::FactorKind::kTlr,
        engine::FactorKind::kVecchia}) {
    const engine::FactorSpec spec{kind, 16, 1e-7, -1};
    auto factor = std::make_shared<const engine::CholeskyFactor>(
        engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity, spec));
    const engine::PmvnEngine eng(rt, factor, small_opts());

    const std::vector<double> b(static_cast<std::size_t>(n), kInf);
    std::vector<std::vector<double>> lows;
    for (const double lo : {-0.9, -0.3, 0.2})
      lows.emplace_back(static_cast<std::size_t>(n), lo);
    std::vector<engine::LimitSet> batch;
    batch.push_back({lows[0], b, 7, true});
    batch.push_back({lows[1], b, 7, false});   // same seed, different limits
    batch.push_back({lows[2], b, 123, true});  // different seed
    const std::vector<engine::QueryResult> fused = eng.evaluate(batch);
    ASSERT_EQ(fused.size(), batch.size());

    for (std::size_t qi = 0; qi < batch.size(); ++qi) {
      const engine::QueryResult alone = eng.evaluate_one(batch[qi]);
      EXPECT_DOUBLE_EQ(fused[qi].prob, alone.prob)
          << "kind=" << static_cast<int>(kind) << " query=" << qi;
      EXPECT_DOUBLE_EQ(fused[qi].error3sigma, alone.error3sigma) << qi;
      ASSERT_EQ(fused[qi].prefix_prob.size(), alone.prefix_prob.size()) << qi;
      for (std::size_t i = 0; i < alone.prefix_prob.size(); ++i)
        EXPECT_DOUBLE_EQ(fused[qi].prefix_prob[i], alone.prefix_prob[i])
            << "query=" << qi << " prefix=" << i;
    }
  }
}

TEST(PmvnEngine, BatchedMatchesSingleUnderTightPanelBudget) {
  // Batch transparency must survive panelling: a tiny shared budget forces
  // many rounds with per-query widths different from the single-query runs.
  const SpatialProblem pb(5);
  rt::Runtime rt(2);
  const i64 n = pb.n();
  std::vector<i64> identity(static_cast<std::size_t>(n));
  std::iota(identity.begin(), identity.end(), i64{0});
  const engine::FactorSpec spec{engine::FactorKind::kDense, 10, 0.0, -1};
  auto factor = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity, spec));

  engine::EngineOptions tight = small_opts();
  tight.panel_bytes = 1;  // floor: one tile of columns per query per round
  engine::EngineOptions wide = small_opts();
  const engine::PmvnEngine eng_tight(rt, factor, tight);
  const engine::PmvnEngine eng_wide(rt, factor, wide);

  const std::vector<double> a(static_cast<std::size_t>(n), -0.5);
  const std::vector<double> b(static_cast<std::size_t>(n), 1.5);
  std::vector<engine::LimitSet> batch;
  batch.push_back({a, b, 3, true});
  batch.push_back({a, b, 4, true});
  const auto r_tight = eng_tight.evaluate(batch);
  const auto r_wide = eng_wide.evaluate(batch);
  for (std::size_t qi = 0; qi < batch.size(); ++qi) {
    EXPECT_DOUBLE_EQ(r_tight[qi].prob, r_wide[qi].prob) << qi;
    for (std::size_t i = 0; i < r_wide[qi].prefix_prob.size(); ++i)
      EXPECT_DOUBLE_EQ(r_tight[qi].prefix_prob[i], r_wide[qi].prefix_prob[i])
          << "query=" << qi << " prefix=" << i;
  }
}

TEST(PmvnEngine, AgreesWithLegacySingleQueryWrappers) {
  // core::pmvn_dense delegates to the engine; a direct engine run over the
  // same borrowed factor must agree bitwise.
  const SpatialProblem pb(6);
  rt::Runtime rt(2);
  const i64 n = pb.n();
  const geo::CorrelationGenerator corr(*pb.cov);
  tile::TileMatrix l(rt, n, n, 16, tile::Layout::kLowerSymmetric);
  l.generate_async(rt, corr);
  rt.wait_all();
  tile::potrf_tiled(rt, l);

  const std::vector<double> a(static_cast<std::size_t>(n), -0.7);
  const std::vector<double> b(static_cast<std::size_t>(n), kInf);
  core::PmvnOptions legacy;
  legacy.samples_per_shift = 150;
  legacy.shifts = 4;
  legacy.sampler = stats::SamplerKind::kRichtmyer;
  legacy.seed = 21;
  const engine::QueryResult via_wrapper = core::pmvn_dense(rt, l, a, b, legacy);

  auto factor = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::borrow_dense(l));
  engine::EngineOptions opts = small_opts();
  const engine::PmvnEngine eng(rt, factor, opts);
  const engine::QueryResult direct = eng.evaluate_one({a, b, 21, false});
  EXPECT_DOUBLE_EQ(via_wrapper.prob, direct.prob);
  EXPECT_DOUBLE_EQ(via_wrapper.error3sigma, direct.error3sigma);
}

TEST(PmvnEngine, PanelHandlesAreRecycledAcrossRoundsAndCalls) {
  // Serving workload: one long-lived runtime, many evaluate() calls. The
  // per-round panel/p handles must be released back to the runtime, or the
  // handle table grows with query volume.
  const SpatialProblem pb(5);
  rt::Runtime rt(2);
  const i64 n = pb.n();
  std::vector<i64> identity(static_cast<std::size_t>(n));
  std::iota(identity.begin(), identity.end(), i64{0});
  const engine::FactorSpec spec{engine::FactorKind::kDense, 10, 0.0, -1};
  auto factor = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity, spec));
  engine::EngineOptions opts = small_opts();
  opts.panel_bytes = 1;  // many rounds per evaluate
  const engine::PmvnEngine eng(rt, factor, opts);

  const std::vector<double> a(static_cast<std::size_t>(n), -0.5);
  const std::vector<double> b(static_cast<std::size_t>(n), kInf);
  std::vector<engine::LimitSet> batch;
  batch.push_back({a, b, 1, true});
  batch.push_back({a, b, 2, false});

  const rt::DataHandle before = rt.register_data();
  (void)eng.evaluate(batch);
  (void)eng.evaluate(batch);
  const rt::DataHandle after = rt.register_data();
  // Without recycling this id gap would be ~(rows+1)*tiles per round times
  // ~60 rounds times 2 calls; with recycling it is at most one round's
  // handle count.
  EXPECT_LE(after.id(), before.id() + 16)
      << "engine panel handles must be released every round";
  rt.release_data(before);
  rt.release_data(after);
}

TEST(PmvnEngine, EmptyBatchAndShapeChecks) {
  const SpatialProblem pb(4);
  rt::Runtime rt(1);
  std::vector<i64> identity(static_cast<std::size_t>(pb.n()));
  std::iota(identity.begin(), identity.end(), i64{0});
  const engine::FactorSpec spec{engine::FactorKind::kDense, 8, 0.0, -1};
  auto factor = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity, spec));
  const engine::PmvnEngine eng(rt, factor, small_opts());
  EXPECT_TRUE(eng.evaluate({}).empty());

  const std::vector<double> short_a(4, 0.0);
  const std::vector<double> b(static_cast<std::size_t>(pb.n()), kInf);
  EXPECT_THROW((void)eng.evaluate_one({short_a, b, 1, false}), Error);
}

TEST(EngineOptions, ValidateRejectsEveryBadKnobTyped) {
  // Nonsense options must fail typed at construction (PmvnEngine's ctor
  // calls validate()), never as undefined downstream behaviour.
  const auto expect_throws = [](auto mutate) {
    engine::EngineOptions o;
    mutate(o);
    EXPECT_THROW(o.validate(), Error);
  };
  engine::EngineOptions ok;
  EXPECT_NO_THROW(ok.validate());
  expect_throws([](auto& o) { o.samples_per_shift = 0; });
  expect_throws([](auto& o) { o.shifts = 0; });
  expect_throws([](auto& o) { o.panel_bytes = 0; });
  expect_throws([](auto& o) { o.deadline_ms = -1; });
  expect_throws([](auto& o) { o.ep_margin = -0.05; });
  expect_throws([](auto& o) { o.ep_margin = std::nan(""); });
  expect_throws([](auto& o) { o.abs_tol = -1.0; });
  expect_throws([](auto& o) {
    o.adaptive = true;
    o.min_shifts = 1;
  });
  expect_throws([](auto& o) {
    o.adaptive = true;
    o.min_shifts = o.shifts + 1;
  });
}

TEST(EngineOptions, PmvnEngineConstructorValidates) {
  const SpatialProblem pb(4);
  rt::Runtime rt(1);
  std::vector<i64> identity(static_cast<std::size_t>(pb.n()));
  std::iota(identity.begin(), identity.end(), i64{0});
  const engine::FactorSpec spec{engine::FactorKind::kDense, 8, 0.0, -1};
  auto factor = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity, spec));
  engine::EngineOptions bad = small_opts();
  bad.deadline_ms = -1;
  EXPECT_THROW(engine::PmvnEngine(rt, factor, bad), Error);
}

TEST(FactorCache, HitsMissesAndLru) {
  const SpatialProblem pb(5);
  rt::Runtime rt(2);
  const i64 n = pb.n();
  std::vector<i64> identity(static_cast<std::size_t>(n));
  std::iota(identity.begin(), identity.end(), i64{0});
  std::vector<i64> reversed(identity.rbegin(), identity.rend());
  const engine::FactorSpec dense16{engine::FactorKind::kDense, 16, 0.0, -1};
  const engine::FactorSpec dense8{engine::FactorKind::kDense, 8, 0.0, -1};

  engine::FactorCache cache(2);
  const auto f1 = cache.get_or_factor(rt, *pb.cov, identity, dense16);
  EXPECT_EQ(cache.stats().misses, 1);
  const auto f2 = cache.get_or_factor(rt, *pb.cov, identity, dense16);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(f1.get(), f2.get()) << "hit must return the cached factor";

  // Different ordering and different spec are distinct entries.
  (void)cache.get_or_factor(rt, *pb.cov, reversed, dense16);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.get_or_factor(rt, *pb.cov, identity, dense8);
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_EQ(cache.size(), 2u) << "capacity 2 holds";
  EXPECT_EQ(cache.stats().evictions, 1);

  // The evicted identity/tile-16 entry must re-factor.
  (void)cache.get_or_factor(rt, *pb.cov, identity, dense16);
  EXPECT_EQ(cache.stats().misses, 4);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(FactorCache, VecchiaConditioningSizeIsPartOfTheKey) {
  // Two specs differing only in vecchia_m describe different factors (more
  // conditioning = a different sparse inverse-Cholesky); the cache must
  // never serve one for the other.
  const SpatialProblem pb(5);
  rt::Runtime rt(2);
  std::vector<i64> identity(static_cast<std::size_t>(pb.n()));
  std::iota(identity.begin(), identity.end(), i64{0});
  engine::FactorSpec m8{engine::FactorKind::kVecchia, 16, 0.0, -1};
  m8.vecchia_m = 8;
  engine::FactorSpec m12 = m8;
  m12.vecchia_m = 12;

  engine::FactorCache cache(4);
  const auto f8 = cache.get_or_factor(rt, *pb.cov, identity, m8);
  const auto f12 = cache.get_or_factor(rt, *pb.cov, identity, m12);
  EXPECT_NE(f8.get(), f12.get());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(f8->vecchia().cond_m(), 8);
  EXPECT_EQ(f12->vecchia().cond_m(), 12);
  // And each spec hits its own entry on re-request.
  EXPECT_EQ(cache.get_or_factor(rt, *pb.cov, identity, m8).get(), f8.get());
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(FactorCache, NonCacheableGeneratorAlwaysFactors) {
  rt::Runtime rt(1);
  la::Matrix sigma = la::Matrix::identity(6);
  const la::DenseGenerator gen(std::move(sigma));  // cache_key() is empty
  std::vector<i64> identity(6);
  std::iota(identity.begin(), identity.end(), i64{0});
  const engine::FactorSpec spec{engine::FactorKind::kDense, 3, 0.0, -1};

  engine::FactorCache cache(4);
  const auto f1 = cache.get_or_factor(rt, gen, identity, spec);
  const auto f2 = cache.get_or_factor(rt, gen, identity, spec);
  EXPECT_NE(f1.get(), f2.get());
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.size(), 0u) << "opt-out entries are never stored";
}

TEST(FactorCache, DifferentRuntimeIsAMiss) {
  // Factors are bound to the runtime that registered their tile handles;
  // the cache must refuse to serve them to another runtime.
  const SpatialProblem pb(4);
  std::vector<i64> identity(static_cast<std::size_t>(pb.n()));
  std::iota(identity.begin(), identity.end(), i64{0});
  const engine::FactorSpec spec{engine::FactorKind::kDense, 8, 0.0, -1};
  engine::FactorCache cache(4);
  rt::Runtime rt_a(1);
  const auto f1 = cache.get_or_factor(rt_a, *pb.cov, identity, spec);
  rt::Runtime rt_b(1);
  const auto f2 = cache.get_or_factor(rt_b, *pb.cov, identity, spec);
  EXPECT_NE(f1.get(), f2.get());
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST(FactorCache, RecreatedRuntimeIsAMissEvenAtTheSameAddress) {
  // Runtime binding is by process-unique uid, not address: a runtime
  // destroyed and reconstructed (typically at the same stack address) must
  // never be served the stale factor, whose handles index the dead
  // runtime's table.
  const SpatialProblem pb(4);
  std::vector<i64> identity(static_cast<std::size_t>(pb.n()));
  std::iota(identity.begin(), identity.end(), i64{0});
  const engine::FactorSpec spec{engine::FactorKind::kDense, 8, 0.0, -1};
  engine::FactorCache cache(4);
  {
    rt::Runtime rt_first(1);
    (void)cache.get_or_factor(rt_first, *pb.cov, identity, spec);
  }
  rt::Runtime rt_second(1);
  const auto factor = cache.get_or_factor(rt_second, *pb.cov, identity, spec);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.size(), 1u)
      << "the dead runtime's unreachable entry must be purged, not pinned";
  // And the served factor is actually usable with the new runtime.
  const std::vector<double> a(static_cast<std::size_t>(pb.n()), -0.2);
  const std::vector<double> b(static_cast<std::size_t>(pb.n()), kInf);
  const engine::PmvnEngine eng(rt_second, factor, small_opts());
  EXPECT_GT(eng.evaluate_one({a, b, 5, false}).prob, 0.0);
}

TEST(FactorCache, KernelAndGeneratorKeysAreParameterComplete) {
  const geo::LocationSet locs = geo::regular_grid(3, 3);
  const auto k1 = std::make_shared<stats::ExponentialKernel>(1.0, 0.2);
  const auto k2 = std::make_shared<stats::ExponentialKernel>(1.0, 0.25);
  const geo::KernelCovGenerator g1(locs, k1, 1e-6);
  const geo::KernelCovGenerator g1b(locs, k1, 1e-6);
  const geo::KernelCovGenerator g2(locs, k2, 1e-6);
  const geo::KernelCovGenerator g3(locs, k1, 1e-5);
  EXPECT_FALSE(g1.cache_key().empty());
  EXPECT_EQ(g1.cache_key(), g1b.cache_key());
  EXPECT_NE(g1.cache_key(), g2.cache_key()) << "kernel params must show";
  EXPECT_NE(g1.cache_key(), g3.cache_key()) << "nugget must show";

  const geo::LocationSet other = geo::regular_grid(3, 4);
  const geo::KernelCovGenerator g4(other, k1, 1e-6);
  EXPECT_NE(g1.cache_key(), g4.cache_key()) << "locations must show";

  const geo::CorrelationGenerator corr(g1);
  EXPECT_FALSE(corr.cache_key().empty());
  EXPECT_NE(corr.cache_key(), g1.cache_key());
}

TEST(FactorCache, ConcurrentServingThreadsShareOneCache) {
  // The first ROADMAP scaling lever: one mutex over lookup/insert/evict/
  // purge lets serving threads share a cache. Each thread drives its own
  // runtime (factors stay runtime-bound, so threads get their own entries
  // by key) against a small shared cache whose capacity forces concurrent
  // insert/evict traffic; every returned factor must be intact and the
  // counters must balance.
  const SpatialProblem pb(4);
  const i64 n = pb.n();
  std::vector<i64> identity(static_cast<std::size_t>(n));
  std::iota(identity.begin(), identity.end(), i64{0});
  std::vector<i64> reversed(identity.rbegin(), identity.rend());
  const engine::FactorSpec spec{engine::FactorKind::kDense, 8, 0.0, -1};

  engine::FactorCache cache(3);  // < threads x orders: eviction under load
  constexpr int kThreads = 4;
  constexpr int kIters = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      rt::Runtime rt(1);
      for (int it = 0; it < kIters; ++it) {
        const std::vector<i64>& order = (it + t) % 2 == 0 ? identity : reversed;
        const auto factor = cache.get_or_factor(rt, *pb.cov, order, spec);
        if (factor == nullptr || factor->dim() != n ||
            factor->order() != order) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  const engine::FactorCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, i64{kThreads * kIters});
  EXPECT_GT(stats.misses, 0);
  EXPECT_LE(cache.size(), cache.capacity());
}

// Satellite of the failure-domain hardening PR: no runtime in this suite
// may have leaked a tile-handle slot through HandleLease::release().
TEST(HandleHygiene, NoHandleLeakedAcrossTheWholeSuite) {
  EXPECT_EQ(rt::Runtime::total_handles_leaked(), 0);
}

}  // namespace
