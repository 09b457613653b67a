// Quickstart: compute a high-dimensional MVN probability three ways.
//
//   1. Sequential Genz SOV (the reference algorithm, core/sov.hpp)
//   2. Parallel tile PMVN over the task runtime (the paper's Algorithm 2)
//   3. Plain Monte Carlo sampling (the baseline SOV replaces)
//
// The example uses the exchangeable-correlation identity
// P(X_i > 0 for all i) = 1/(n+1) at rho = 1/2 so you can see every method
// converge to a known truth.
//
// Build & run:  ./build/examples/quickstart [n]
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/mvn_mc.hpp"
#include "core/pmvn.hpp"
#include "core/sov.hpp"
#include "linalg/potrf.hpp"
#include "runtime/runtime.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tiled_potrf.hpp"

int main(int argc, char** argv) {
  using namespace parmvn;
  const i64 n = (argc > 1) ? std::stoll(argv[1]) : 128;
  const double truth = 1.0 / static_cast<double>(n + 1);
  std::printf("MVN orthant probability, exchangeable rho=1/2, n=%lld\n",
              static_cast<long long>(n));
  std::printf("closed form: 1/(n+1) = %.6e\n\n", truth);

  // Sigma = 0.5 I + 0.5 11^T; limits a = 0, b = +inf.
  la::Matrix sigma(n, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < n; ++i) sigma(i, j) = (i == j) ? 1.0 : 0.5;
  const std::vector<double> a(static_cast<std::size_t>(n), 0.0);
  const std::vector<double> b(static_cast<std::size_t>(n),
                              std::numeric_limits<double>::infinity());

  // 1) Sequential Genz SOV with randomized Richtmyer QMC.
  core::SovOptions sov;
  sov.samples_per_shift = 2000;
  sov.shifts = 10;
  const core::SovResult seq = core::mvn_probability(sigma.view(), a, b, sov);
  std::printf("sequential SOV : %.6e  (3-sigma %.1e, rel err %+.2e)\n",
              seq.prob, seq.error3sigma, seq.prob / truth - 1.0);

  // 2) Parallel tile PMVN (Algorithm 2): tiled Cholesky + QMC sweep as a
  //    task graph.
  rt::Runtime rt;  // default_num_threads() workers
  tile::TileMatrix l(rt, n, n, 64, tile::Layout::kLowerSymmetric);
  l.from_dense(sigma.view());
  tile::potrf_tiled(rt, l);
  core::PmvnOptions pm;
  pm.samples_per_shift = 2000;
  pm.shifts = 10;
  pm.sampler = stats::SamplerKind::kRichtmyer;
  const engine::QueryResult par = core::pmvn_dense(rt, l, a, b, pm);
  std::printf("parallel PMVN  : %.6e  (3-sigma %.1e, rel err %+.2e, %.3f s)\n",
              par.prob, par.error3sigma, par.prob / truth - 1.0, par.seconds);

  // 3) Plain MC baseline at the same sample budget.
  la::Matrix chol = la::to_matrix(sigma.view());
  la::potrf_lower_or_throw(chol.view());
  la::zero_strict_upper(chol.view());
  const core::MvnMcResult mc =
      core::mvn_probability_mc(chol.view(), a, b, 20000, 7);
  std::printf("plain MC       : %.6e  (3-sigma %.1e, rel err %+.2e)\n",
              mc.prob, mc.error3sigma, mc.prob / truth - 1.0);

  std::printf(
      "\nNote how the randomized-QMC SOV error is far below the plain-MC\n"
      "error at an equal budget — the reason the paper builds on Genz's\n"
      "transformation.\n");
  return 0;
}
