// Tiered evaluation: the EP screening estimator (src/ep/) and its wiring
// through the engine. Pinned contracts:
//
//  * the truncated-Gaussian moment kernel matches brute-force quadrature on
//    every branch (two-sided, one-sided, straddle, deep tails);
//  * n = 1 EP is exact: the screen's log-normaliser equals the true
//    log P(a <= X <= b) to near machine precision;
//  * EP agrees with a converged dense QMC reference well inside the default
//    ep_margin band at n = 64 and n = 256, on the final probability and on
//    every prefix row;
//  * the one-pass screen is bitwise the two-pass cold solve it replaced
//    (ADF pass, then a damped certify sweep whose delta is exactly 0), on
//    dense, TLR and Vecchia factors;
//  * tiered detection never flips a region side versus the QMC-only sweep,
//    while actually retiring queries through the EP tier;
//  * tiered results are bitwise identical across worker counts (EP runs on
//    the host thread from deterministic factor bits; the QMC sub-batch
//    inherits the engine's schedule independence);
//  * the Vecchia arm screens through its observed-slot generative rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/excursion.hpp"
#include "engine/cholesky_factor.hpp"
#include "engine/factor_backend.hpp"
#include "engine/pmvn_engine.hpp"
#include "ep/ep_screen.hpp"
#include "ep/truncated.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "runtime/runtime.hpp"
#include "stats/covariance.hpp"
#include "stats/normal.hpp"

namespace {

using namespace parmvn;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kWorkerMatrix[] = {1, 2, 8};

// Brute-force truncated moments of a standard normal on [alpha, beta]:
// composite Simpson over the effective support, accurate far beyond the
// tolerances below as long as the interval holds non-negligible mass.
ep::TruncatedMoments brute_moments(double alpha, double beta) {
  const double lo = std::max(alpha, -40.0);
  const double hi = std::min(beta, 40.0);
  const i64 steps = 400000;  // even
  const double h = (hi - lo) / static_cast<double>(steps);
  double z = 0.0, m1 = 0.0, m2 = 0.0;
  for (i64 i = 0; i <= steps; ++i) {
    const double x = lo + h * static_cast<double>(i);
    const double w = (i == 0 || i == steps) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
    const double f = w * std::exp(-0.5 * x * x);
    z += f;
    m1 += f * x;
    m2 += f * x * x;
  }
  const double scale = h / 3.0 / std::sqrt(2.0 * 3.14159265358979323846);
  const double mass = z * scale;
  const double mean = m1 / z;
  const double var = m2 / z - mean * mean;
  return {std::log(mass), mean, var};
}

TEST(Truncated, MatchesBruteForceQuadrature) {
  const struct {
    double alpha, beta;
  } cases[] = {
      {-1.0, 1.0},   {-0.3, 2.5},  {0.5, 1.5},    {-2.0, -0.5}, {1.0, kInf},
      {-kInf, -1.2}, {-kInf, 0.7}, {-0.01, 0.01}, {3.0, 3.5},   {-3.5, -3.0},
      {0.0, kInf},   {-kInf, 0.0}, {-5.0, 5.0},   {2.0, 2.001},
  };
  for (const auto& c : cases) {
    const ep::TruncatedMoments got = ep::truncated_moments(c.alpha, c.beta);
    const ep::TruncatedMoments ref = brute_moments(c.alpha, c.beta);
    EXPECT_NEAR(got.logz, ref.logz, 1e-8) << c.alpha << " " << c.beta;
    EXPECT_NEAR(got.mean, ref.mean, 1e-7) << c.alpha << " " << c.beta;
    EXPECT_NEAR(got.var, ref.var, 1e-6) << c.alpha << " " << c.beta;
  }
}

TEST(Truncated, DeepTailStaysFiniteAndOrdered) {
  // Quadrature can't reach these, but the closed forms must stay finite,
  // inside the interval, and with variance in (0, 1].
  const struct {
    double alpha, beta;
  } cases[] = {{8.0, kInf}, {10.0, 11.0}, {-kInf, -9.0}, {35.0, 36.0}};
  for (const auto& c : cases) {
    const ep::TruncatedMoments got = ep::truncated_moments(c.alpha, c.beta);
    EXPECT_TRUE(std::isfinite(got.logz)) << c.alpha;
    EXPECT_LT(got.logz, 0.0);
    EXPECT_GE(got.mean, std::min(c.alpha, c.beta) - 1e-9);
    if (std::isfinite(c.beta)) {
      EXPECT_LE(got.mean, c.beta + 1e-9);
    }
    EXPECT_GT(got.var, 0.0);
    EXPECT_LE(got.var, 1.0 + 1e-12);
  }
}

struct Problem {
  geo::LocationSet locs;
  std::shared_ptr<stats::ExponentialKernel> kernel;

  explicit Problem(i64 side)
      : locs(geo::apply_permutation(
            geo::regular_grid(side, side),
            geo::morton_order(geo::regular_grid(side, side)))),
        kernel(std::make_shared<stats::ExponentialKernel>(1.0, 0.2)) {}
};

std::shared_ptr<const engine::CholeskyFactor> make_factor(
    rt::Runtime& rt, const geo::KernelCovGenerator& gen,
    engine::FactorKind kind, i64 tile) {
  const i64 n = gen.rows();
  std::vector<i64> identity(static_cast<std::size_t>(n));
  std::iota(identity.begin(), identity.end(), i64{0});
  engine::FactorSpec spec;
  spec.kind = kind;
  spec.tile = tile;
  spec.vecchia_m = 20;
  return std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor_ordered(rt, gen, identity, spec));
}

TEST(EpScreen, ExactInOneDimension) {
  const Problem pb(1);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-9);
  rt::Runtime rt(1);
  const auto factor = make_factor(rt, gen, engine::FactorKind::kDense, 1);

  const struct {
    double a, b;
  } cases[] = {{-0.3, kInf}, {-kInf, 1.1}, {-1.0, 0.5}, {0.8, 2.0}};
  for (const auto& c : cases) {
    const std::vector<double> a = {c.a}, b = {c.b};
    const ep::EpResult res = ep::ep_screen(factor->backend(), a, b);
    const double lo = std::isinf(c.a) ? 0.0 : stats::norm_cdf(c.a);
    const double hi = std::isinf(c.b) ? 1.0 : stats::norm_cdf(c.b);
    EXPECT_EQ(res.sweeps, 1);
    EXPECT_NEAR(std::exp(res.logz), hi - lo, 1e-10) << c.a << " " << c.b;
    ASSERT_EQ(res.prefix_logz.size(), 1u);
    EXPECT_EQ(res.prefix_logz[0], res.logz);
  }
}

// EP against a converged dense QMC reference: the final probability and
// every prefix row must sit well inside the default ep_margin band — this
// is the calibration the tiered engine's retirement rule leans on.
void expect_ep_agreement(i64 side, double lower) {
  const Problem pb(side);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  const i64 n = gen.rows();
  rt::Runtime rt(4);
  const auto factor = make_factor(rt, gen, engine::FactorKind::kDense, 32);

  const std::vector<double> a(static_cast<std::size_t>(n), lower);
  const std::vector<double> b(static_cast<std::size_t>(n), kInf);
  const ep::EpResult ep_res = ep::ep_screen(factor->backend(), a, b);
  EXPECT_EQ(ep_res.sweeps, 1);
  ASSERT_EQ(static_cast<i64>(ep_res.prefix_logz.size()), n);
  // Monotone non-increasing prefix curve, by construction.
  for (i64 i = 1; i < n; ++i)
    EXPECT_LE(ep_res.prefix_logz[static_cast<std::size_t>(i)],
              ep_res.prefix_logz[static_cast<std::size_t>(i - 1)] + 1e-12);

  engine::EngineOptions qmc;
  qmc.samples_per_shift = 2000;
  qmc.shifts = 20;
  qmc.sampler = stats::SamplerKind::kRichtmyer;
  const engine::PmvnEngine eng(rt, factor, qmc);
  const engine::QueryResult ref =
      eng.evaluate_one({a, b, 20240517, /*prefix=*/true});

  const double band = 0.035;  // well inside the default ep_margin = 0.05
  EXPECT_NEAR(std::exp(ep_res.logz), ref.prob, band) << "n=" << n;
  for (i64 i = 0; i < n; ++i)
    EXPECT_NEAR(std::exp(ep_res.prefix_logz[static_cast<std::size_t>(i)]),
                ref.prefix_prob[static_cast<std::size_t>(i)], band)
        << "n=" << n << " row=" << i;
}

TEST(EpScreen, AgreesWithDenseQmcN64) { expect_ep_agreement(8, -0.4); }

TEST(EpScreen, AgreesWithDenseQmcN256) { expect_ep_agreement(16, 0.1); }

// Verbatim copy of the cold path the one-pass screen replaced: the
// full-damping (ADF) solve pass, then damped certify sweeps until the
// largest relative site change is within tolerance. The screen returned
// the last certify sweep's prefix curve. run() does the first certify
// sweep only; the test asserts its change is exactly 0, so the loop
// stopped there.
class TwoPassOracle {
 public:
  explicit TwoPassOracle(const engine::FactorBackend& f)
      : n_(f.dim()), latent_(f.ep_latent_slots()) {
    offsets_.push_back(0);
    d_.resize(static_cast<std::size_t>(n_));
    std::vector<std::pair<i64, double>> row;
    for (i64 k = 0; k < n_; ++k) {
      d_[static_cast<std::size_t>(k)] = f.ep_row(k, row);
      for (const auto& [slot, coef] : row) {
        slots_.push_back(slot);
        coefs_.push_back(coef);
      }
      offsets_.push_back(static_cast<i64>(slots_.size()));
    }
    m_.assign(static_cast<std::size_t>(n_), 0.0);
    v_.assign(static_cast<std::size_t>(n_), 1.0);
    tau_.assign(static_cast<std::size_t>(n_), 0.0);
    nu_.assign(static_cast<std::size_t>(n_), 0.0);
    prefix_logz_.assign(static_cast<std::size_t>(n_), 0.0);
  }

  // Returns the first certify sweep's delta; prefix_logz() is its curve.
  double run(std::span<const double> a, std::span<const double> b) {
    a_ = a;
    b_ = b;
    std::fill(tau_.begin(), tau_.end(), 0.0);
    std::fill(nu_.begin(), nu_.end(), 0.0);
    (void)sweep(1.0);
    return sweep(0.5);  // the old default damping
  }
  const std::vector<double>& prefix_logz() const { return prefix_logz_; }

 private:
  double sweep(double damping) {
    std::fill(m_.begin(), m_.end(), 0.0);
    std::fill(v_.begin(), v_.end(), 1.0);
    double delta = 0.0;
    double cum = 0.0;
    for (i64 k = 0; k < n_; ++k) {
      const std::size_t uk = static_cast<std::size_t>(k);
      const auto [mu_f, v_f] = forward_moments(k);
      const double sd = std::sqrt(v_f);
      const ep::TruncatedMoments tm =
          ep::truncated_moments((a_[uk] - mu_f) / sd, (b_[uk] - mu_f) / sd);
      cum += tm.logz;
      prefix_logz_[uk] = cum;
      const double v_t = std::max(v_f * tm.var, kVMin);
      const double mu_t = mu_f + std::sqrt(v_f) * tm.mean;
      const double tau_star = std::max(1.0 / v_t - 1.0 / v_f, 0.0);
      const double nu_star = mu_t / v_t - mu_f / v_f;
      const double tau_new = tau_[uk] + damping * (tau_star - tau_[uk]);
      const double nu_new = nu_[uk] + damping * (nu_star - nu_[uk]);
      delta = std::max(delta, std::fabs(tau_new - tau_[uk]) /
                                  (1.0 + std::fabs(tau_[uk])));
      delta = std::max(delta, std::fabs(nu_new - nu_[uk]) /
                                  (1.0 + std::fabs(nu_[uk])));
      tau_[uk] = tau_new;
      nu_[uk] = nu_new;
      const double v_p = 1.0 / (1.0 / v_f + tau_new);
      const double mu_p = (mu_f / v_f + nu_new) * v_p;
      project(k, mu_f, v_f, mu_p, std::max(v_p, kVMin));
    }
    return delta;
  }

  std::pair<double, double> forward_moments(i64 k) const {
    const std::size_t uk = static_cast<std::size_t>(k);
    double mu = 0.0;
    double var = 0.0;
    for (i64 e = offsets_[uk]; e < offsets_[uk + 1]; ++e) {
      const std::size_t ue = static_cast<std::size_t>(e);
      const double c = coefs_[ue];
      const std::size_t j = static_cast<std::size_t>(slots_[ue]);
      mu += c * m_[j];
      var += c * c * v_[j];
    }
    const double d = d_[uk];
    if (latent_) {
      mu += d * m_[uk];
      var += d * d * v_[uk];
    } else {
      var += d * d;
    }
    return {mu, std::max(var, kVMin)};
  }

  void project(i64 k, double mu_f, double v_f, double mu_p, double v_p) {
    const std::size_t uk = static_cast<std::size_t>(k);
    const double dmu = mu_p - mu_f;
    const double dv = v_f - v_p;
    for (i64 e = offsets_[uk]; e < offsets_[uk + 1]; ++e) {
      const std::size_t ue = static_cast<std::size_t>(e);
      const std::size_t j = static_cast<std::size_t>(slots_[ue]);
      const double g = coefs_[ue] * v_[j] / v_f;
      m_[j] += g * dmu;
      v_[j] = std::max(v_[j] - g * g * dv, kVMin);
    }
    if (latent_) {
      const double g = d_[uk] * v_[uk] / v_f;
      m_[uk] += g * dmu;
      v_[uk] = std::max(v_[uk] - g * g * dv, kVMin);
    } else {
      m_[uk] = mu_p;
      v_[uk] = std::max(v_p, kVMin);
    }
  }

  static constexpr double kVMin = 1e-12;
  std::span<const double> a_, b_;
  i64 n_;
  bool latent_;
  std::vector<i64> offsets_, slots_;
  std::vector<double> coefs_, d_, m_, v_, tau_, nu_, prefix_logz_;
};

TEST(EpScreen, OnePassMatchesTwoPassOracleBitwise) {
  const Problem pb(8);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  const i64 n = gen.rows();
  rt::Runtime rt(2);

  // One-sided (the detector's shape), two-sided, and mixed rows with
  // infinite limits on either side.
  std::vector<std::vector<double>> as, bs;
  as.emplace_back(static_cast<std::size_t>(n), -0.2);
  bs.emplace_back(static_cast<std::size_t>(n), kInf);
  as.emplace_back(static_cast<std::size_t>(n), -1.0);
  bs.emplace_back(static_cast<std::size_t>(n), 0.8);
  std::vector<double> am(static_cast<std::size_t>(n)), bm(am.size());
  for (i64 i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    am[ui] = i % 3 == 0 ? -kInf : -0.5 + 0.01 * static_cast<double>(i % 7);
    bm[ui] = i % 4 == 1 ? kInf : 1.2 - 0.02 * static_cast<double>(i % 5);
  }
  as.push_back(am);
  bs.push_back(bm);

  for (const engine::FactorKind kind :
       {engine::FactorKind::kDense, engine::FactorKind::kTlr,
        engine::FactorKind::kVecchia}) {
    const auto factor = make_factor(rt, gen, kind, 16);
    ep::EpScreener screener(factor->backend());
    TwoPassOracle oracle(factor->backend());
    for (std::size_t c = 0; c < as.size(); ++c) {
      const double delta = oracle.run(as[c], bs[c]);
      EXPECT_EQ(delta, 0.0) << "kind=" << static_cast<int>(kind) << " c=" << c;
      const ep::EpResult got = screener.screen(as[c], bs[c]);
      EXPECT_EQ(got.sweeps, 1);
      ASSERT_EQ(got.prefix_logz.size(), oracle.prefix_logz().size());
      for (std::size_t i = 0; i < got.prefix_logz.size(); ++i)
        ASSERT_EQ(got.prefix_logz[i], oracle.prefix_logz()[i])
            << "kind=" << static_cast<int>(kind) << " c=" << c << " row=" << i;
      EXPECT_EQ(got.logz, oracle.prefix_logz().back());
    }
  }
}

TEST(EpScreen, VecchiaArmScreensObservedSlots) {
  const Problem pb(8);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  const i64 n = gen.rows();
  rt::Runtime rt(2);
  const auto factor = make_factor(rt, gen, engine::FactorKind::kVecchia, 16);
  ASSERT_FALSE(factor->backend().ep_latent_slots());

  const std::vector<double> a(static_cast<std::size_t>(n), -0.4);
  const std::vector<double> b(static_cast<std::size_t>(n), kInf);
  const ep::EpResult ep_res = ep::ep_screen(factor->backend(), a, b);
  EXPECT_EQ(ep_res.sweeps, 1);

  engine::EngineOptions qmc;
  qmc.samples_per_shift = 2000;
  qmc.shifts = 20;
  qmc.sampler = stats::SamplerKind::kRichtmyer;
  const engine::PmvnEngine eng(rt, factor, qmc);
  const engine::QueryResult ref = eng.evaluate_one({a, b, 20240517, false});
  EXPECT_NEAR(std::exp(ep_res.logz), ref.prob, 0.035);
}

// ---- engine tiering ----

core::CrdOptions tiered_crd_options() {
  core::CrdOptions opts;
  opts.alpha = 0.1;
  opts.tile = 16;
  opts.pmvn.samples_per_shift = 200;
  opts.pmvn.shifts = 8;
  opts.pmvn.sampler = stats::SamplerKind::kRichtmyer;
  opts.pmvn.seed = 20240517;
  return opts;
}

std::vector<double> bump_mean(const geo::LocationSet& locs) {
  std::vector<double> mean(locs.size());
  for (std::size_t i = 0; i < locs.size(); ++i) {
    const double dx = locs[i].x - 0.5;
    const double dy = locs[i].y - 0.5;
    mean[i] = 1.6 * std::exp(-(dx * dx + dy * dy) / 0.08);
  }
  return mean;
}

std::vector<core::CrdQuery> threshold_ladder() {
  // A ladder spanning easy retires (extreme thresholds: prefix curves far
  // from 1 - alpha) and genuine straddlers near the region boundary.
  std::vector<core::CrdQuery> queries;
  for (const double u : {0.2, 0.5, 0.7, 0.8, 0.9, 1.2, 1.5})
    queries.push_back({u, 0.1, core::CrdDirection::kAbove, {}});
  return queries;
}

TEST(Tiered, NeverFlipsRegionSide) {
  const Problem pb(8);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  const std::vector<double> mean = bump_mean(pb.locs);
  const std::vector<core::CrdQuery> queries = threshold_ladder();
  const core::CrdOptions opts = tiered_crd_options();

  rt::Runtime rt(4);
  const std::vector<core::CrdResult> qmc_only =
      core::detect_confidence_regions(rt, gen, mean, opts, queries);

  core::CrdOptions tiered = opts;
  tiered.pmvn.tiered = true;
  tiered.pmvn.adaptive = true;
  tiered.pmvn.abs_tol = 1e-3;
  const std::vector<core::CrdResult> got =
      core::detect_confidence_regions(rt, gen, mean, tiered, queries);

  ASSERT_EQ(got.size(), qmc_only.size());
  int ep_retired = 0;
  for (std::size_t qi = 0; qi < got.size(); ++qi) {
    if (got[qi].method == engine::EvalMethod::kEp) {
      ++ep_retired;
      EXPECT_EQ(got[qi].samples_used, 0) << "query=" << qi;
    }
    ASSERT_EQ(got[qi].region.size(), qmc_only[qi].region.size());
    EXPECT_EQ(got[qi].region_size, qmc_only[qi].region_size) << "query=" << qi;
    for (std::size_t i = 0; i < got[qi].region.size(); ++i)
      EXPECT_EQ(got[qi].region[i], qmc_only[qi].region[i])
          << "query=" << qi << " location=" << i;
  }
  // The tier must actually fire, or this test pins nothing.
  EXPECT_GE(ep_retired, 1);
  // And the straddling thresholds must still go through QMC.
  EXPECT_LT(ep_retired, static_cast<int>(got.size()));
}

std::vector<double> run_tiered(int workers, const Problem& pb,
                               const std::vector<double>& mean,
                               const std::vector<core::CrdQuery>& queries) {
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  core::CrdOptions opts = tiered_crd_options();
  opts.pmvn.tiered = true;
  opts.pmvn.adaptive = true;
  opts.pmvn.abs_tol = 1e-3;
  rt::Runtime rt(workers);
  const std::vector<core::CrdResult> results =
      core::detect_confidence_regions(rt, gen, mean, opts, queries);
  std::vector<double> flat;
  for (const core::CrdResult& r : results) {
    flat.push_back(static_cast<double>(r.method == engine::EvalMethod::kEp));
    flat.push_back(static_cast<double>(r.samples_used));
    flat.push_back(static_cast<double>(r.region_size));
    flat.insert(flat.end(), r.prefix_prob.begin(), r.prefix_prob.end());
    flat.insert(flat.end(), r.confidence.begin(), r.confidence.end());
  }
  return flat;
}

TEST(Tiered, BitwiseIdenticalAcrossWorkers) {
  const Problem pb(8);
  const std::vector<double> mean = bump_mean(pb.locs);
  const std::vector<core::CrdQuery> queries = threshold_ladder();

  const std::vector<double> reference = run_tiered(1, pb, mean, queries);
  for (const int workers : kWorkerMatrix) {
    const std::vector<double> got = run_tiered(workers, pb, mean, queries);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_EQ(got[i], reference[i])
          << "tiered drifted, workers=" << workers << " value=" << i;
  }
}

TEST(Tiered, OffReproducesQmcPathBitwise) {
  // tiered == false must be the untouched engine; and a tiered engine must
  // hand decision-free queries to QMC untouched (batch transparency).
  const Problem pb(6);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  const i64 n = gen.rows();
  rt::Runtime rt(2);
  const auto factor = make_factor(rt, gen, engine::FactorKind::kDense, 16);

  engine::EngineOptions base;
  base.samples_per_shift = 200;
  base.shifts = 4;
  base.sampler = stats::SamplerKind::kRichtmyer;
  engine::EngineOptions tiered = base;
  tiered.tiered = true;

  const std::vector<double> a(static_cast<std::size_t>(n), -0.5);
  const std::vector<double> b(static_cast<std::size_t>(n), kInf);
  const engine::LimitSet q{a, b, 20240517, /*prefix=*/true};  // no decision

  const engine::QueryResult plain =
      engine::PmvnEngine(rt, factor, base).evaluate_one(q);
  const engine::QueryResult via_tiered =
      engine::PmvnEngine(rt, factor, tiered).evaluate_one(q);
  EXPECT_EQ(plain.method, engine::EvalMethod::kQmc);
  EXPECT_EQ(via_tiered.method, engine::EvalMethod::kQmc);
  EXPECT_EQ(plain.prob, via_tiered.prob);
  EXPECT_EQ(plain.error3sigma, via_tiered.error3sigma);
  ASSERT_EQ(plain.prefix_prob.size(), via_tiered.prefix_prob.size());
  for (std::size_t i = 0; i < plain.prefix_prob.size(); ++i)
    EXPECT_EQ(plain.prefix_prob[i], via_tiered.prefix_prob[i]);
}

TEST(Tiered, EveryResultOfAMixedBatchCarriesTheBatchSeconds) {
  // QueryResult::seconds is the wall time of the whole evaluate() call, the
  // same for each query whichever tier answered it: an EP-retired query
  // and a decision-free QMC query of one batch report the same time.
  const Problem pb(8);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  const i64 n = gen.rows();
  rt::Runtime rt(2);
  const auto factor = make_factor(rt, gen, engine::FactorKind::kDense, 16);
  engine::EngineOptions opts;
  opts.samples_per_shift = 200;
  opts.shifts = 4;
  opts.tiered = true;
  const std::vector<double> a(static_cast<std::size_t>(n), -0.5);
  const std::vector<double> b(static_cast<std::size_t>(n), kInf);
  // P(all 64 sites above -0.5) is far below 0.9 - ep_margin.
  const std::vector<engine::LimitSet> batch = {{a, b, 1, false, 0.9},
                                               {a, b, 2, true}};
  const std::vector<engine::QueryResult> got =
      engine::PmvnEngine(rt, factor, opts).evaluate(batch);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].method, engine::EvalMethod::kEp);
  EXPECT_EQ(got[1].method, engine::EvalMethod::kQmc);
  EXPECT_GT(got[0].seconds, 0.0);
  EXPECT_EQ(got[0].seconds, got[1].seconds);
}

// Satellite of the failure-domain hardening PR: no runtime in this suite
// may have leaked a tile-handle slot through HandleLease::release().
TEST(HandleHygiene, NoHandleLeakedAcrossTheWholeSuite) {
  EXPECT_EQ(rt::Runtime::total_handles_leaked(), 0);
}

}  // namespace
