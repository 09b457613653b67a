// Ablation A3: tile-size sweep for the PMVN sweep + tiled Cholesky. Tile
// size trades scheduler overhead and parallelism (small tiles) against
// kernel efficiency (large tiles); the paper uses 320 dense / 980 TLR.
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
  bench::header("Ablation A3", "PMVN tile-size sweep (dense)", args);

  const i64 side = args.full ? 70 : (args.quick ? 24 : 40);
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

  const std::vector<i64> tiles = args.quick
                                     ? std::vector<i64>{64, 192}
                                     : std::vector<i64>{50, 100, 200, 400, 800};
  std::printf("n=%lld\n", static_cast<long long>(n));
  std::printf("tile,factor_s,sweep_s,total_s,prob\n");
  for (const i64 tile : tiles) {
    if (tile > n) continue;
    rt::Runtime rt(args.threads > 0 ? static_cast<int>(args.threads)
                                    : default_num_threads());
    auto factor = std::make_shared<const engine::CholeskyFactor>(
        engine::CholeskyFactor::factor(rt, gen,
                                       {engine::FactorKind::kDense, tile}));
    const double factor_s = factor->factor_seconds();
    engine::EngineOptions opts;
    opts.samples_per_shift = 100;
    opts.shifts = 10;
    const engine::QueryResult r =
        engine::PmvnEngine(rt, factor, opts).evaluate_one({a, b});
    std::printf("%lld,%.3f,%.3f,%.3f,%.5e\n", static_cast<long long>(tile),
                factor_s, r.seconds, factor_s + r.seconds, r.prob);
    std::fflush(stdout);
  }
  bench::row_comment(
      "the probability column is tile-size invariant (same chains, "
      "different blocking); time has a sweet spot between scheduling "
      "overhead and kernel efficiency");
  return 0;
}
