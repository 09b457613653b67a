// Tests for the factor-once / evaluate-many engine layer: CholeskyFactor
// construction and borrowing, the batched PmvnEngine's batch-transparency
// contract (batched results bitwise-identical to single-query evaluation),
// the engine sweep checked bitwise against a literal mean-form Algorithm 2
// oracle, the sweep plan's layout rules and the shared decision rule checked
// as data (no runtime), and FactorCache LRU/keying semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/qmc_kernel.hpp"
#include "engine/cholesky_factor.hpp"
#include "engine/factor_cache.hpp"
#include "engine/pmvn_engine.hpp"
#include "engine/sweep_plan.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "linalg/blas.hpp"
#include "runtime/runtime.hpp"
#include "stats/covariance.hpp"
#include "stats/qmc.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tiled_potrf.hpp"
#include "tlr/lr_tile.hpp"
#include "tlr/tlr_matrix.hpp"
#include "vecchia/vecchia_factor.hpp"

namespace {

using namespace parmvn;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

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

std::vector<i64> identity_order(i64 n) {
  std::vector<i64> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), i64{0});
  return order;
}

// A batch whose queries constrain different extents (k = 3, 17, n: a is
// finite on rows < k, -inf past them, b = +inf) plus one query whose b is
// finite on tile row 2 only, two-sided among one-sided queries. The vectors
// own what the LimitSets point into.
struct MixedBatch {
  std::vector<std::vector<double>> a, b;
  std::vector<engine::LimitSet> queries;

  MixedBatch(i64 n, i64 tile) {
    for (const i64 k : {i64{3}, i64{17}, n}) {
      a.emplace_back(static_cast<std::size_t>(n), -kInf);
      std::fill_n(a.back().begin(), k, -0.3);
      b.emplace_back(static_cast<std::size_t>(n), kInf);
    }
    a.emplace_back(static_cast<std::size_t>(n), -0.6);
    b.emplace_back(static_cast<std::size_t>(n), kInf);
    std::fill_n(b.back().begin() + 2 * tile, tile, 1.4);
    for (std::size_t q = 0; q < a.size(); ++q)
      queries.push_back({a[q], b[q], 11 + q, q != 1});
  }
};

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

// tlr_max_rank = 0 would compress every off-diagonal block to zero and
// factor the block-diagonal matrix: rejected typed, before any compression,
// and not absorbed by the dense fallback.
TEST(CholeskyFactor, TlrZeroRankCapIsRejected) {
  const SpatialProblem pb(6);
  rt::Runtime rt(2);
  for (const bool fallback : {false, true}) {
    engine::FactorSpec spec{engine::FactorKind::kTlr, 12, 1e-3, 0};
    spec.fallback = fallback;
    EXPECT_THROW((void)engine::CholeskyFactor::factor_ordered(
                     rt, *pb.cov, identity_order(pb.n()), spec),
                 Error);
  }
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
  EXPECT_EQ(eng_owned.evaluate_one(q).prob,
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
    // Mixed extents and one two-sided query: a query's swept extent differs
    // between the batch and its single run.
    const MixedBatch mixed(n, 16);
    for (const std::vector<engine::LimitSet>& qs : {batch, mixed.queries}) {
      const std::vector<engine::QueryResult> fused = eng.evaluate(qs);
      ASSERT_EQ(fused.size(), qs.size());

      for (std::size_t qi = 0; qi < qs.size(); ++qi) {
        const engine::QueryResult alone = eng.evaluate_one(qs[qi]);
        EXPECT_EQ(fused[qi].prob, alone.prob)
            << "kind=" << static_cast<int>(kind) << " query=" << qi;
        EXPECT_EQ(fused[qi].error3sigma, alone.error3sigma) << qi;
        ASSERT_EQ(fused[qi].prefix_prob.size(), alone.prefix_prob.size())
            << qi;
        for (std::size_t i = 0; i < alone.prefix_prob.size(); ++i)
          EXPECT_EQ(fused[qi].prefix_prob[i], alone.prefix_prob[i])
              << "query=" << qi << " prefix=" << i;
      }
    }
  }
}

// Algorithm 2 in mean form with nothing skipped, spelled out for one query
// on the dense or TLR arm: per tile-wide column tile of samples, zeroed mean
// panels M on all n rows, core::qmc_tile_kernel per tile row against the
// query's limit spans, and M_i += Y_r L_ir^T for every later tile row. The
// engine skips tile rows past the last finite limit and shares panels and
// GEMMs across a batch; every result bit must still match this. `shifts`
// blocks are evaluated; with `per_shift` the stream is cut into one range
// per shift block, as the adaptive round loop sweeps it, else it is one
// range, as the fixed-budget round sweeps it. Column tiles start at each
// range's first sample.
engine::QueryResult oracle_sweep(const engine::CholeskyFactor& f,
                                 const engine::LimitSet& q,
                                 const engine::EngineOptions& opts, int shifts,
                                 bool per_shift) {
  const i64 n = f.dim();
  const i64 m = f.tile_size();
  const i64 mt = f.row_tiles();
  const i64 sps = opts.samples_per_shift;
  const i64 total = sps * shifts;
  const stats::PointSet pts(opts.sampler, n, sps, opts.shifts, q.seed);
  const bool dense = f.kind() == engine::FactorKind::kDense;
  const auto diag = [&](i64 r) {
    return dense ? f.dense().tile(r, r) : f.tlr().diag(r);
  };
  const auto update = [&](i64 i, i64 r, la::ConstMatrixView y,
                          la::MatrixView mean) {
    constexpr la::Trans kNo = la::Trans::kNo;
    constexpr la::Trans kYes = la::Trans::kYes;
    if (dense) {
      la::gemm(kNo, kYes, 1.0, y, f.dense().tile(i, r), 1.0, mean);
    } else {
      const tlr::LowRankTile& t = f.tlr().lr(i, r);
      la::Matrix yv(y.rows, t.rank());
      la::gemm(kNo, kNo, 1.0, y, t.v.view(), 0.0, yv.view());
      la::gemm(kNo, kYes, 1.0, yv.view(), t.u.view(), 1.0, mean);
    }
  };
  const auto span_of = [&](std::span<const double> lim, i64 r) {
    return lim.subspan(static_cast<std::size_t>(r * m),
                       static_cast<std::size_t>(f.tile_rows(r)));
  };

  std::vector<double> p(static_cast<std::size_t>(total), 1.0);
  std::vector<double> prefix(static_cast<std::size_t>(n), 0.0);
  const i64 range = per_shift ? sps : total;
  for (i64 s0 = 0; s0 < total; s0 += range) {
    std::vector<double> range_sum(static_cast<std::size_t>(n), 0.0);
    for (i64 c0 = s0; c0 < s0 + range; c0 += m) {
      const i64 w = std::min(m, s0 + range - c0);
      std::vector<la::Matrix> M, Y;
      for (i64 r = 0; r < mt; ++r) {
        M.emplace_back(w, f.tile_rows(r));  // zero
        Y.emplace_back(w, f.tile_rows(r));
      }
      std::vector<double> acc(static_cast<std::size_t>(n), 0.0);
      for (i64 r = 0; r < mt; ++r) {
        const auto ru = static_cast<std::size_t>(r);
        core::qmc_tile_kernel(diag(r), pts, r * m, c0, span_of(q.a, r),
                              span_of(q.b, r), M[ru].view(), Y[ru].view(),
                              p.data() + c0,
                              q.prefix ? acc.data() + r * m : nullptr);
        for (i64 i = r + 1; i < mt; ++i)
          update(i, r, Y[ru].view(), M[static_cast<std::size_t>(i)].view());
      }
      for (std::size_t i = 0; i < acc.size(); ++i) range_sum[i] += acc[i];
    }
    for (std::size_t i = 0; i < prefix.size(); ++i) prefix[i] += range_sum[i];
  }

  std::vector<double> means(static_cast<std::size_t>(shifts), 0.0);
  for (i64 s = 0; s < total; ++s)
    means[static_cast<std::size_t>(pts.shift_of(s))] +=
        p[static_cast<std::size_t>(s)];
  for (double& mean : means) mean /= static_cast<double>(sps);
  const stats::BlockEstimate est = stats::combine_block_means(means);
  engine::QueryResult res;
  res.prob = est.mean;
  res.error3sigma = est.error3sigma;
  if (q.prefix) {
    res.prefix_prob = std::move(prefix);
    const double inv = 1.0 / static_cast<double>(total);
    for (double& v : res.prefix_prob) v *= inv;
  }
  return res;
}

TEST(PmvnEngine, MatchesFullSweepOracleBitwise) {
  // Skipping infinite limits and fusing the sweep must not move a bit:
  // every query shape, on both per-pair update arms, fixed and adaptive,
  // alone and as one fused batch of mixed extents (each query swept to its
  // own last finite limit, mid tile row for k = 21 and the band), equals
  // the literal mean-form sweep.
  const SpatialProblem pb(8);  // n = 64: four tile rows of 16
  rt::Runtime rt(4);
  const i64 n = pb.n();
  const auto nz = static_cast<std::size_t>(n);
  const std::vector<double> inf_b(nz, kInf);
  const std::vector<double> one_sided(nz, -0.4);
  // Served top-k shape: the k = 21 sites exceed u, a = -inf past them
  // (k ends mid tile row 1).
  std::vector<double> topk(nz, -kInf);
  std::fill_n(topk.begin(), 21, 0.3);
  const std::vector<double> box_a(nz, -0.8);
  const std::vector<double> box_b(nz, 1.2);
  // b finite on tile row 1 only; a = -inf past row 40 (extent 40).
  std::vector<double> band_a(nz, -kInf);
  std::fill_n(band_a.begin(), 40, -0.5);
  std::vector<double> band_b(nz, kInf);
  std::fill_n(band_b.begin() + 16, 16, 1.1);
  const std::vector<engine::LimitSet> shapes = {
      {one_sided, inf_b, 5, true}, {topk, inf_b, 6, true},
      {topk, inf_b, 7, false},     {box_a, box_b, 8, false},
      {band_a, band_b, 9, true}};

  for (const engine::FactorKind kind :
       {engine::FactorKind::kDense, engine::FactorKind::kTlr}) {
    const engine::FactorSpec spec{kind, 16, 1e-7, -1};
    auto factor = std::make_shared<const engine::CholeskyFactor>(
        engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity_order(n),
                                               spec));
    for (const bool adaptive : {false, true}) {
      engine::EngineOptions opts = small_opts();
      opts.adaptive = adaptive;
      opts.abs_tol = adaptive ? 0.02 : 0.0;
      const engine::PmvnEngine eng(rt, factor, opts);
      const std::vector<engine::QueryResult> fused = eng.evaluate(shapes);
      for (std::size_t qi = 0; qi < shapes.size(); ++qi) {
        const engine::QueryResult alone = eng.evaluate_one(shapes[qi]);
        for (const engine::QueryResult* got : {&alone, &fused[qi]}) {
          const engine::QueryResult want = oracle_sweep(
              *factor, shapes[qi], opts, got->shifts_used, adaptive);
          const std::string where =
              "kind=" + std::to_string(static_cast<int>(kind)) +
              " adaptive=" + std::to_string(adaptive) +
              " query=" + std::to_string(qi) +
              (got == &alone ? " alone" : " fused");
          EXPECT_EQ(got->prob, want.prob) << where;
          EXPECT_EQ(got->error3sigma, want.error3sigma) << where;
          ASSERT_EQ(got->prefix_prob.size(), want.prefix_prob.size())
              << where;
          for (std::size_t i = 0; i < want.prefix_prob.size(); ++i)
            EXPECT_EQ(got->prefix_prob[i], want.prefix_prob[i])
                << where << " prefix=" << i;
        }
      }
    }
  }
}

TEST(PmvnEngine, EachQuerySweepsOnlyItsOwnTileRows) {
  // The task graph follows each query's own extent, not the batch's: at
  // n = 64 and tile 16, top-k k = 21 takes tile rows 0-1 (2 QMC tasks, the
  // (1, 0) update) and the one-sided query all four (4 QMC tasks, 6
  // updates) — 6 and 7 per column tile of each query, where a batch-wide
  // extent gives 8 and 12.
  const SpatialProblem pb(8);
  rt::Runtime rt(2, /*enable_trace=*/true);
  const i64 n = pb.n();
  const auto nz = static_cast<std::size_t>(n);
  const std::vector<double> inf_b(nz, kInf);
  const std::vector<double> one_sided(nz, -0.4);
  std::vector<double> topk(nz, -kInf);
  std::fill_n(topk.begin(), 21, 0.3);
  const std::vector<engine::LimitSet> batch = {{topk, inf_b, 1, true},
                                               {one_sided, inf_b, 2, false}};
  for (const engine::FactorKind kind :
       {engine::FactorKind::kDense, engine::FactorKind::kTlr}) {
    const engine::FactorSpec spec{kind, 16, 1e-7, -1};
    auto factor = std::make_shared<const engine::CholeskyFactor>(
        engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity_order(n),
                                               spec));
    for (const bool adaptive : {false, true}) {
      // 16 samples per query, in one round either way: one column tile
      // each (fixed), or two one-shift column tiles each, since column
      // tiles restart at every prefix slot (adaptive, no early stop).
      engine::EngineOptions opts;
      opts.samples_per_shift = 8;
      opts.shifts = 2;
      opts.adaptive = adaptive;
      const int tiles_per_query = adaptive ? 2 : 1;
      const std::size_t before = rt.trace().size();
      const engine::PmvnEngine eng(rt, factor, opts);
      (void)eng.evaluate(batch);
      i64 qmc = 0;
      i64 update = 0;
      for (std::size_t i = before; i < rt.trace().size(); ++i) {
        qmc += rt.trace()[i].name == "qmc";
        update += rt.trace()[i].name == "pmvn_update";
      }
      const std::string where = "kind=" +
                                std::to_string(static_cast<int>(kind)) +
                                " adaptive=" + std::to_string(adaptive);
      EXPECT_EQ(qmc, 6 * tiles_per_query) << where;
      EXPECT_EQ(update, 7 * tiles_per_query) << where;
    }
  }
}

TEST(PmvnEngine, RowsPastTheExtentMatchAFullSweepBitwise) {
  // A query and its twin whose infinite lower limits past the extent are
  // replaced by -1e300 (finite, so the twin is swept over all n rows, each
  // extra row's factor Phi(+inf) - Phi(-1e300 / d) being exactly 1) give
  // the same bits on every arm, the Vecchia one included, alone and fused.
  // The extents end mid tile row (3, 17) and on the last row (n).
  const SpatialProblem pb(8);
  rt::Runtime rt(3);
  const i64 n = pb.n();
  const MixedBatch mixed(n, 16);
  std::vector<std::vector<double>> far_a = mixed.a;
  for (std::vector<double>& a : far_a)
    std::replace(a.begin(), a.end(), -kInf, -1e300);
  std::vector<engine::LimitSet> twins = mixed.queries;
  for (std::size_t q = 0; q < twins.size(); ++q) twins[q].a = far_a[q];
  for (const engine::FactorKind kind :
       {engine::FactorKind::kDense, engine::FactorKind::kTlr,
        engine::FactorKind::kVecchia}) {
    const engine::FactorSpec spec{kind, 16, 1e-7, -1};
    auto factor = std::make_shared<const engine::CholeskyFactor>(
        engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity_order(n),
                                               spec));
    const engine::PmvnEngine eng(rt, factor, small_opts());
    const std::vector<engine::QueryResult> got = eng.evaluate(mixed.queries);
    for (std::size_t q = 0; q < twins.size(); ++q) {
      const engine::QueryResult want = eng.evaluate_one(twins[q]);
      const std::string where = "kind=" +
                                std::to_string(static_cast<int>(kind)) +
                                " query=" + std::to_string(q);
      EXPECT_EQ(got[q].prob, want.prob) << where;
      EXPECT_EQ(got[q].error3sigma, want.error3sigma) << where;
      ASSERT_EQ(got[q].prefix_prob.size(), want.prefix_prob.size()) << where;
      for (std::size_t i = 0; i < want.prefix_prob.size(); ++i)
        EXPECT_EQ(got[q].prefix_prob[i], want.prefix_prob[i])
            << where << " prefix=" << i;
    }
  }
}

TEST(PmvnEngine, UnconstrainedQueryIsExactlyOne) {
  const SpatialProblem pb(6);
  rt::Runtime rt(2);
  const i64 n = pb.n();
  const std::vector<double> a(static_cast<std::size_t>(n), -kInf);
  const std::vector<double> b(static_cast<std::size_t>(n), kInf);
  for (const engine::FactorKind kind :
       {engine::FactorKind::kDense, engine::FactorKind::kTlr,
        engine::FactorKind::kVecchia}) {
    const engine::FactorSpec spec{kind, 8, 1e-7, -1};
    auto factor = std::make_shared<const engine::CholeskyFactor>(
        engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity_order(n),
                                               spec));
    const engine::PmvnEngine eng(rt, factor, small_opts());
    const engine::QueryResult res = eng.evaluate_one({a, b, 3, true});
    EXPECT_EQ(res.prob, 1.0) << static_cast<int>(kind);
    ASSERT_EQ(static_cast<i64>(res.prefix_prob.size()), n);
    for (const double v : res.prefix_prob) EXPECT_EQ(v, 1.0);
  }
}

TEST(PmvnEngine, NanLimitThrowsTypedNamingTheQuery) {
  // Phi(b) - Phi(a) is 0 for a NaN limit: without the check a NaN would
  // come back as a confident probability 0. The tiered path must refuse it
  // before the EP screen, too.
  const SpatialProblem pb(4);
  rt::Runtime rt(1);
  const i64 n = pb.n();
  const engine::FactorSpec spec{engine::FactorKind::kDense, 8, 0.0, -1};
  auto factor = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity_order(n),
                                             spec));
  const std::vector<double> a(static_cast<std::size_t>(n), -0.5);
  const std::vector<double> b(static_cast<std::size_t>(n), kInf);
  std::vector<double> a_nan = a;
  a_nan[5] = std::nan("");
  std::vector<double> b_nan = b;
  b_nan[9] = std::nan("");
  using Limits = std::pair<std::span<const double>, std::span<const double>>;
  const std::vector<Limits> bad = {{a_nan, b}, {a, b_nan}};
  for (const bool tiered : {false, true}) {
    engine::EngineOptions opts = small_opts();
    opts.tiered = tiered;
    const engine::PmvnEngine eng(rt, factor, opts);
    for (const auto& [qa, qb] : bad) {
      std::vector<engine::LimitSet> batch(3, {a, b, 1, false, 0.5});
      batch[2] = {qa, qb, 2, false, 0.5};
      try {
        (void)eng.evaluate(batch);
        ADD_FAILURE() << "NaN limit accepted, tiered=" << tiered;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("query 2"), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(PmvnEngine, BatchedMatchesSingleUnderTightPanelBudget) {
  // Batch transparency must survive panelling: a tiny shared budget forces
  // many panels with per-query widths different from the single-query runs.
  // The adaptive case retires two of three queries after two shift blocks,
  // so the lone survivor's share of the budget (135 columns, floored to 130)
  // outgrows the first rounds' panels (3 x 40 columns) and the engine's
  // panel workspace has to grow mid-evaluate.
  const SpatialProblem pb(5);
  rt::Runtime rt(2);
  const i64 n = pb.n();
  std::vector<i64> identity(static_cast<std::size_t>(n));
  std::iota(identity.begin(), identity.end(), i64{0});
  const engine::FactorSpec spec{engine::FactorKind::kDense, 10, 0.0, -1};
  auto factor = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity, spec));

  const std::vector<double> a(static_cast<std::size_t>(n), -0.5);
  const std::vector<double> b(static_cast<std::size_t>(n), 1.5);
  for (const bool adaptive : {false, true}) {
    engine::EngineOptions tight = small_opts();
    tight.adaptive = adaptive;
    // Fixed: the floor, one tile of columns per query per panel.
    tight.panel_bytes = adaptive ? 2 * 8 * n * 135 : 1;
    engine::EngineOptions wide = small_opts();
    wide.adaptive = adaptive;
    const engine::PmvnEngine eng_tight(rt, factor, tight);
    const engine::PmvnEngine eng_wide(rt, factor, wide);

    std::vector<engine::LimitSet> batch;
    batch.push_back({a, b, 3, true, adaptive ? 0.9 : kNaN});
    batch.push_back({a, b, 4, !adaptive, adaptive ? 0.9 : kNaN});
    if (adaptive) batch.push_back({a, b, 5, true});  // runs every shift
    const auto r_tight = eng_tight.evaluate(batch);
    const auto r_wide = eng_wide.evaluate(batch);
    if (adaptive) {
      ASSERT_EQ(r_tight[0].shifts_used, 2);
      ASSERT_EQ(r_tight[1].shifts_used, 2);
      ASSERT_EQ(r_tight[2].shifts_used, tight.shifts);
    }
    for (std::size_t qi = 0; qi < batch.size(); ++qi) {
      const engine::QueryResult alone = eng_tight.evaluate_one(batch[qi]);
      const std::string where =
          "adaptive=" + std::to_string(adaptive) + " query=" + std::to_string(qi);
      EXPECT_EQ(r_tight[qi].prob, r_wide[qi].prob) << where;
      EXPECT_EQ(r_tight[qi].prob, alone.prob) << where;
      ASSERT_EQ(r_tight[qi].prefix_prob.size(), r_wide[qi].prefix_prob.size());
      ASSERT_EQ(alone.prefix_prob.size(), r_wide[qi].prefix_prob.size());
      for (std::size_t i = 0; i < r_wide[qi].prefix_prob.size(); ++i) {
        EXPECT_EQ(r_tight[qi].prefix_prob[i], r_wide[qi].prefix_prob[i])
            << where << " prefix=" << i;
        EXPECT_EQ(alone.prefix_prob[i], r_wide[qi].prefix_prob[i])
            << where << " prefix=" << i;
      }
    }
  }
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

// ---- The sweep plan, checked as data (no runtime) ----

// Round shapes at tile 16 on n = 64: extents ending inside and on tile rows
// (two equal, so the sort's stability shows), every query or a subset
// active, slots of 24 samples (not a tile multiple), 40 and 16, rounds of
// one to three slots starting at slot 0 or later, panels that fit or are
// cut per slot (32 and 16 columns), and both task shapes (per-pair updates
// and folded backends).
constexpr i64 kPlanTile = 16;
const std::vector<i64> kPlanExtents = {17, 64, 3, 40, 64, 1};
const std::vector<i64> kPlanAll = {0, 1, 2, 3, 4, 5};
const std::vector<i64> kPlanSome = {1, 2, 4, 5};

std::vector<engine::SweepRound> plan_rounds() {
  std::vector<engine::SweepRound> rounds;
  for (const std::vector<i64>* active : {&kPlanAll, &kPlanSome})
    for (const i64 slot : {i64{24}, i64{40}, i64{16}})
      for (const auto& [first, count] :
           {std::pair<i64, i64>{0, 1}, {0, 3}, {2, 2}})
        for (const i64 cols : {i64{16}, i64{32}, i64{1} << 20})
          for (const bool pair : {true, false})
            rounds.push_back({kPlanExtents, *active, first * slot,
                              (first + count) * slot, slot, kPlanTile, cols,
                              pair});
  return rounds;
}

i64 plan_row_tiles(i64 extent) { return (extent + kPlanTile - 1) / kPlanTile; }

std::string round_name(const engine::SweepRound& r) {
  return "active=" + std::to_string(r.active.size()) +
         " samples=[" + std::to_string(r.sample0) + "," +
         std::to_string(r.sample1) + ") slot=" +
         std::to_string(r.slot_samples) +
         " cols=" + std::to_string(r.panel_cols) +
         " pair=" + std::to_string(r.pair_tasks);
}

TEST(SweepPlan, EverySampleOfEveryActiveQueryIsInExactlyOneTile) {
  for (const engine::SweepRound& round : plan_rounds()) {
    const engine::SweepPlan plan = engine::plan_sweep(round);
    const i64 span = round.sample1 - round.sample0;
    std::vector<std::vector<int>> hits(kPlanExtents.size(),
                                       std::vector<int>(span, 0));
    for (const engine::PanelPlan& panel : plan)
      for (const engine::ColTile& ct : panel.tiles) {
        ASSERT_GE(ct.sample0, round.sample0) << round_name(round);
        ASSERT_LE(ct.sample0 + ct.width, round.sample1) << round_name(round);
        for (i64 s = ct.sample0; s < ct.sample0 + ct.width; ++s)
          ++hits[static_cast<std::size_t>(ct.query)]
                [static_cast<std::size_t>(s - round.sample0)];
      }
    for (std::size_t q = 0; q < kPlanExtents.size(); ++q) {
      const bool active = std::find(round.active.begin(), round.active.end(),
                                    static_cast<i64>(q)) != round.active.end();
      for (i64 s = 0; s < span; ++s)
        EXPECT_EQ(hits[q][static_cast<std::size_t>(s)], active ? 1 : 0)
            << round_name(round) << " query=" << q
            << " sample=" << round.sample0 + s;
    }
  }
}

TEST(SweepPlan, TilesNeverStraddleAQueryOrASlot) {
  // A tile names one query by construction; its samples must also lie in
  // one slot, the one its prefix sums fold into, and it is at most m wide.
  for (const engine::SweepRound& round : plan_rounds())
    for (const engine::PanelPlan& panel : engine::plan_sweep(round))
      for (const engine::ColTile& ct : panel.tiles) {
        const std::string where = round_name(round) +
                                  " sample0=" + std::to_string(ct.sample0);
        EXPECT_GE(ct.width, 1) << where;
        EXPECT_LE(ct.width, kPlanTile) << where;
        EXPECT_EQ(ct.slot, ct.sample0 / round.slot_samples) << where;
        EXPECT_EQ(ct.slot, (ct.sample0 + ct.width - 1) / round.slot_samples)
            << where;
      }
}

TEST(SweepPlan, EachQuerysTilesAreContiguousAndAscending) {
  for (const engine::SweepRound& round : plan_rounds())
    for (const engine::PanelPlan& panel : engine::plan_sweep(round)) {
      const std::vector<engine::ColTile>& tiles = panel.tiles;
      i64 col = 0;
      for (std::size_t t = 0; t < tiles.size(); ++t) {
        const std::string where = round_name(round) + " tile=" +
                                  std::to_string(t);
        EXPECT_EQ(tiles[t].col0, col) << where;  // packed end to end
        col += tiles[t].width;
        if (t == 0 || tiles[t - 1].query != tiles[t].query) {
          // Every query's run starts at the panel's first sample, and no
          // earlier tile belongs to it.
          EXPECT_EQ(tiles[t].sample0, tiles[0].sample0) << where;
          for (std::size_t u = 0; u < t; ++u)
            EXPECT_NE(tiles[u].query, tiles[t].query) << where;
        } else {
          EXPECT_EQ(tiles[t].sample0,
                    tiles[t - 1].sample0 + tiles[t - 1].width)
              << where;
        }
      }
    }
}

TEST(SweepPlan, TilesAreStablySortedByDescendingExtent) {
  // Descending extent; equal extents keep the active order of their
  // queries (query 1 before query 4, both at extent 64).
  for (const engine::SweepRound& round : plan_rounds())
    for (const engine::PanelPlan& panel : engine::plan_sweep(round)) {
      const auto rank = [&](i64 q) {
        return std::find(round.active.begin(), round.active.end(), q) -
               round.active.begin();
      };
      for (std::size_t t = 1; t < panel.tiles.size(); ++t) {
        const engine::ColTile& x = panel.tiles[t - 1];
        const engine::ColTile& y = panel.tiles[t];
        EXPECT_GE(x.extent, y.extent) << round_name(round);
        if (x.extent == y.extent) {
          EXPECT_LE(rank(x.query), rank(y.query)) << round_name(round);
        }
      }
    }
}

TEST(SweepPlan, RowWidthsAndExtentsAreRowExact) {
  for (const engine::SweepRound& round : plan_rounds()) {
    i64 row_tiles = 0;
    for (const i64 q : round.active)
      row_tiles = std::max(
          row_tiles, plan_row_tiles(kPlanExtents[static_cast<std::size_t>(q)]));
    for (const engine::PanelPlan& panel : engine::plan_sweep(round)) {
      const std::string where = round_name(round);
      ASSERT_EQ(static_cast<i64>(panel.row_width.size()), row_tiles) << where;
      for (i64 r = 0; r < row_tiles; ++r) {
        // Row r's panels are exactly the leading tiles that reach it.
        i64 width = 0;
        bool leading = true;
        for (const engine::ColTile& ct : panel.tiles) {
          const bool reaches = r < plan_row_tiles(ct.extent);
          EXPECT_TRUE(leading || !reaches) << where << " row=" << r;
          leading = leading && reaches;
          if (reaches) width += ct.width;
        }
        EXPECT_EQ(panel.row_width[static_cast<std::size_t>(r)], width)
            << where << " row=" << r;
      }
      // Each tile sweeps its query's rows [0, e) exactly: QMC tasks on
      // tile rows r < ceil(e / m) only, the last cut to e - r * m rows,
      // and updates into the same rows.
      for (std::size_t t = 0; t < panel.tiles.size(); ++t) {
        const engine::ColTile& ct = panel.tiles[t];
        EXPECT_EQ(ct.extent, kPlanExtents[static_cast<std::size_t>(ct.query)])
            << where;
        i64 rows = 0;
        i64 next_row = 0;
        for (const engine::SweepTask& task : panel.tasks) {
          if (task.tile != static_cast<i64>(t)) continue;
          ASSERT_LT(task.i, plan_row_tiles(ct.extent)) << where;
          EXPECT_EQ(task.rows_r,
                    std::min(kPlanTile, ct.extent - task.r * kPlanTile))
              << where;
          EXPECT_EQ(task.rows_i,
                    std::min(kPlanTile, ct.extent - task.i * kPlanTile))
              << where;
          if (task.qmc()) {
            EXPECT_EQ(task.r, next_row++) << where;
            rows += task.rows_r;
          }
        }
        EXPECT_EQ(rows, ct.extent) << where << " tile=" << t;
      }
    }
  }
}

TEST(SweepPlan, PanelCutsEqualOneSlotRounds) {
  // A round that does not fit one panel is cut exactly as its slots would
  // be, each swept as a round of its own.
  for (const engine::SweepRound& round : plan_rounds()) {
    if (round.sample1 - round.sample0 <= round.panel_cols) continue;
    const engine::SweepPlan plan = engine::plan_sweep(round);
    engine::SweepPlan by_slot;
    for (i64 g = round.sample0; g < round.sample1; g += round.slot_samples) {
      engine::SweepRound one = round;
      one.sample0 = g;
      one.sample1 = g + round.slot_samples;
      for (engine::PanelPlan& panel : engine::plan_sweep(one))
        by_slot.push_back(std::move(panel));
    }
    const std::string where = round_name(round);
    ASSERT_EQ(plan.size(), by_slot.size()) << where;
    for (std::size_t k = 0; k < plan.size(); ++k) {
      const engine::PanelPlan& x = plan[k];
      const engine::PanelPlan& y = by_slot[k];
      EXPECT_EQ(x.row_width, y.row_width) << where << " panel=" << k;
      ASSERT_EQ(x.tiles.size(), y.tiles.size()) << where << " panel=" << k;
      for (std::size_t t = 0; t < x.tiles.size(); ++t) {
        EXPECT_EQ(x.tiles[t].query, y.tiles[t].query) << where;
        EXPECT_EQ(x.tiles[t].sample0, y.tiles[t].sample0) << where;
        EXPECT_EQ(x.tiles[t].col0, y.tiles[t].col0) << where;
        EXPECT_EQ(x.tiles[t].width, y.tiles[t].width) << where;
        EXPECT_EQ(x.tiles[t].slot, y.tiles[t].slot) << where;
      }
      EXPECT_EQ(x.tasks.size(), y.tasks.size()) << where << " panel=" << k;
    }
  }
}

TEST(SweepPlan, EveryMeanTileHasOneFirstWriterAndAscendingUpdates) {
  // The M/Y workspace is never zero-filled on the host, so the first task
  // to write each M tile (tile row i, column tile t) must overwrite it.
  // Writers of (i, t) are the updates (i, r) and the QMC task on (i, t);
  // updates arrive in ascending r, each after the QMC task on (r, t) whose
  // Y tile it reads, and the QMC task on (i, t) comes last.
  for (const engine::SweepRound& round : plan_rounds())
    for (const engine::PanelPlan& panel : engine::plan_sweep(round))
      for (std::size_t t = 0; t < panel.tiles.size(); ++t) {
        const i64 rows = plan_row_tiles(panel.tiles[t].extent);
        for (i64 i = 0; i < rows; ++i) {
          const std::string where = round_name(round) + " tile=" +
                                    std::to_string(t) + " row=" +
                                    std::to_string(i);
          std::vector<engine::SweepTask> writers;
          std::vector<i64> y_ready;  // tile rows whose Y tile is written
          for (const engine::SweepTask& task : panel.tasks) {
            if (task.tile != static_cast<i64>(t)) continue;
            if (task.i == i) {
              EXPECT_TRUE(task.qmc() ||
                          std::count(y_ready.begin(), y_ready.end(), task.r))
                  << where << " update from row " << task.r;
              writers.push_back(task);
            }
            if (task.qmc()) y_ready.push_back(task.r);
          }
          ASSERT_FALSE(writers.empty()) << where;
          EXPECT_TRUE(writers.front().first) << where;
          EXPECT_EQ(std::count_if(writers.begin(), writers.end(),
                                  [](const engine::SweepTask& w) {
                                    return w.first;
                                  }),
                    1)
              << where;
          EXPECT_TRUE(writers.back().qmc()) << where;
          EXPECT_EQ(static_cast<i64>(writers.size()),
                    round.pair_tasks ? i + 1 : 1)
              << where;
          for (std::size_t w = 0; w < writers.size(); ++w)
            EXPECT_EQ(writers[w].r, round.pair_tasks ? static_cast<i64>(w) : i)
                << where;
        }
      }
}

// ---- The shared decision rule (EP tier and adaptive stop) ----

bool settled(const std::vector<stats::BlockEstimate>& rows, double decision,
             double abs_tol = 0.0) {
  return engine::decision_settled(
      static_cast<i64>(rows.size()), decision, abs_tol,
      [&](i64 i) { return rows[static_cast<std::size_t>(i)]; });
}

TEST(DecisionRule, RowCleanlyBelowSettlesEveryLaterRow) {
  EXPECT_TRUE(settled({{0.95, 0.01}, {0.5, 0.01}, {0.9, 0.2}}, 0.9));
  EXPECT_TRUE(settled({{0.5, 0.01}}, 0.9));  // a scalar is a one-row curve
  EXPECT_TRUE(settled({{0.97, 0.01}, {0.96, 0.01}}, 0.9));  // all above
}

TEST(DecisionRule, StraddlingRowBeforeItLeavesTheQueryUndecided) {
  EXPECT_FALSE(settled({{0.95, 0.01}, {0.9, 0.2}, {0.5, 0.01}}, 0.9));
  EXPECT_FALSE(settled({{0.91, 0.02}}, 0.9));
}

TEST(DecisionRule, NanDecisionNeverSettles) {
  EXPECT_FALSE(settled({{0.5, 0.01}}, kNaN));
  EXPECT_FALSE(settled({{0.95, 0.01}, {0.01, 0.001}}, kNaN));
}

TEST(DecisionRule, AbsTolSettlesStraddlingRows) {
  // A straddling row whose error meets abs_tol no longer blocks; without
  // abs_tol it does.
  const std::vector<stats::BlockEstimate> rows = {{0.9, 0.004}, {0.5, 0.01}};
  EXPECT_TRUE(settled(rows, 0.9, 0.005));
  EXPECT_FALSE(settled(rows, 0.9, 0.0));
  EXPECT_FALSE(settled(rows, 0.9, 0.001));
  // With no decision, every row must meet abs_tol.
  EXPECT_TRUE(settled({{0.9, 0.004}, {0.5, 0.005}}, kNaN, 0.005));
  EXPECT_FALSE(settled({{0.9, 0.004}, {0.5, 0.01}}, kNaN, 0.005));
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
