// Reproduces Table II: speedup of the TLR implementation over dense for one
// MVN integration, as a function of the QMC sample size.
//
// Paper expectation (shared memory): ~2-5x at QMC 100/1000 rising to 9-20x
// at QMC 10000 — the low-rank sweep amortises better the more samples are
// propagated through L.
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "engine/pmvn_engine.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "runtime/runtime.hpp"
#include "stats/covariance.hpp"

int main(int argc, char** argv) {
  using namespace parmvn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::header("Table II", "TLR vs dense speedup by QMC sample size", args);

  const i64 side = args.full ? 140 : (args.quick ? 24 : 48);
  const i64 dense_tile = args.full ? 320 : 144;
  // At laptop scale the paper's 3x-wider TLR tile would make the
  // Phi-heavy QMC kernel (cost ~ N*n*tile/2) dominate the TLR sweep and
  // hide the low-rank update gain; equal tiles expose the paper's trend
  // (speedup growing with QMC size). --full keeps the paper's 320/980.
  const i64 tlr_tile = args.full ? 980 : 144;
  const std::vector<i64> qmc_sizes =
      args.quick ? std::vector<i64>{100, 1000}
                 : std::vector<i64>{100, 1000, 10000};

  geo::LocationSet locs = geo::regular_grid(side, side);
  locs = geo::apply_permutation(locs, geo::morton_order(locs));
  const double range = 0.1 * 140.0 / static_cast<double>(side);
  auto kernel = std::make_shared<stats::MaternKernel>(1.0, range, 0.5);
  // Timing-only experiment: nugget stabilises TLR potrf at loose accuracy.
  const geo::KernelCovGenerator gen(locs, kernel, 1e-2);
  const i64 n = gen.rows();
  const std::vector<double> a(static_cast<std::size_t>(n), -1.0);
  const std::vector<double> b(static_cast<std::size_t>(n),
                              std::numeric_limits<double>::infinity());

  rt::Runtime rt(args.threads > 0 ? static_cast<int>(args.threads)
                                  : default_num_threads());

  // Factor once per format; sweep per QMC size (matches the paper's "one
  // MVN integration" but avoids refactoring identical matrices).
  auto dense = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor(
          rt, gen, {engine::FactorKind::kDense, dense_tile}));
  auto tlr = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor(
          rt, gen, {engine::FactorKind::kTlr, tlr_tile, 1e-3}));
  const double dense_factor_s = dense->factor_seconds();
  const double tlr_factor_s = tlr->factor_seconds();

  std::printf("n=%lld dense_factor=%.3fs tlr_factor=%.3fs\n",
              static_cast<long long>(n), dense_factor_s, tlr_factor_s);
  std::printf("qmc,dense_total_s,tlr_total_s,speedup\n");
  for (const i64 qmc : qmc_sizes) {
    engine::EngineOptions opts;
    opts.samples_per_shift = qmc / 10 > 0 ? qmc / 10 : 1;
    opts.shifts = 10;
    opts.sampler = stats::SamplerKind::kPseudoMC;
    const double ds =
        engine::PmvnEngine(rt, dense, opts).evaluate_one({a, b}).seconds;
    const double ts =
        engine::PmvnEngine(rt, tlr, opts).evaluate_one({a, b}).seconds;
    const double dense_total = dense_factor_s + ds;
    const double tlr_total = tlr_factor_s + ts;
    std::printf("%lld,%.3f,%.3f,%.2fx\n", static_cast<long long>(qmc),
                dense_total, tlr_total, dense_total / tlr_total);
    std::fflush(stdout);
  }
  bench::row_comment(
      "paper Table II: 3X/3X/14X (Ice Lake), 3/3/19 (Cascade Lake), "
      "5/5/20 (Milan), 2/2/9 (Naples) for QMC 100/1000/10000");
  return 0;
}
