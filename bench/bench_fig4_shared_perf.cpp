// Reproduces Fig. 4: elapsed time of one MVN integration operation (tiled
// Cholesky + PMVN sweep) on shared memory, dense vs TLR, across problem
// dimensions and QMC sample sizes.
//
// Paper expectation: TLR beats dense increasingly with dimension and with
// QMC size (its Table II reports up to 9-20x at QMC 10000); dense grows
// ~n^3 for the factorization plus ~n^2*N for the sweep.
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "engine/pmvn_engine.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "runtime/runtime.hpp"
#include "stats/covariance.hpp"

namespace {

using namespace parmvn;

struct Timing {
  double factor_s = 0.0;
  double sweep_s = 0.0;
  [[nodiscard]] double total() const { return factor_s + sweep_s; }
};

// Factor `gen` as `spec` asks, then sweep one query against it.
Timing run(rt::Runtime& rt, const la::MatrixGenerator& gen,
           const engine::FactorSpec& spec, std::span<const double> a,
           std::span<const double> b, const engine::EngineOptions& opts) {
  auto factor = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor(rt, gen, spec));
  const engine::PmvnEngine eng(rt, factor, opts);
  return {factor->factor_seconds(), eng.evaluate_one({a, b}).seconds};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::header("Fig. 4",
                "one MVN integration (factor + sweep), dense vs TLR", args);

  std::vector<i64> sides;        // grid side; n = side^2
  std::vector<i64> qmc_sizes;
  i64 dense_tile = 0;
  i64 tlr_tile = 0;
  if (args.full) {
    sides = {70, 140, 210, 280};  // 4900, 19600, 44100, 78400 (paper)
    qmc_sizes = {100, 1000, 10000};
    dense_tile = 320;
    tlr_tile = 980;
  } else if (args.quick) {
    sides = {24, 32};
    qmc_sizes = {100, 500};
    dense_tile = 128;
    tlr_tile = 288;
  } else {
    sides = {28, 40, 52};  // 784, 1600, 2704
    qmc_sizes = {100, 1000};
    dense_tile = 196;
    tlr_tile = 400;
  }

  std::printf("method,n,qmc,factor_s,sweep_s,total_s\n");
  for (const i64 side : sides) {
    geo::LocationSet locs = geo::regular_grid(side, side);
    locs = geo::apply_permutation(locs, geo::morton_order(locs));
    // Medium correlation, spacing-matched to the paper's (0.1 on 140^2).
    const double range = 0.1 * 140.0 / static_cast<double>(side);
    auto kernel = std::make_shared<stats::MaternKernel>(1.0, range, 0.5);
    // Timing-only experiment: a small nugget keeps the TLR-truncated matrix
    // SPD at loose accuracies (the standard geostatistics stabilisation).
    const geo::KernelCovGenerator gen(locs, kernel, 1e-2);
    const i64 n = gen.rows();
    const std::vector<double> a(static_cast<std::size_t>(n), -1.0);
    const std::vector<double> b(static_cast<std::size_t>(n),
                                std::numeric_limits<double>::infinity());
    rt::Runtime rt(args.threads > 0 ? static_cast<int>(args.threads)
                                    : default_num_threads());
    for (const i64 qmc : qmc_sizes) {
      engine::EngineOptions opts;
      opts.samples_per_shift = qmc / 10 > 0 ? qmc / 10 : 1;
      opts.shifts = 10;
      opts.sampler = stats::SamplerKind::kPseudoMC;  // as in Algorithm 2
      const Timing d =
          run(rt, gen, {engine::FactorKind::kDense, dense_tile}, a, b, opts);
      std::printf("dense,%lld,%lld,%.3f,%.3f,%.3f\n",
                  static_cast<long long>(n), static_cast<long long>(qmc),
                  d.factor_s, d.sweep_s, d.total());
      std::fflush(stdout);
      const Timing t = run(rt, gen, {engine::FactorKind::kTlr, tlr_tile, 1e-3},
                           a, b, opts);
      std::printf("tlr,%lld,%lld,%.3f,%.3f,%.3f\n", static_cast<long long>(n),
                  static_cast<long long>(qmc), t.factor_s, t.sweep_s,
                  t.total());
      std::fflush(stdout);
    }
  }
  bench::row_comment(
      "paper: TLR's dashed curves sit below dense at every dimension, with "
      "the gap widening as dimension and QMC size grow");
  return 0;
}
