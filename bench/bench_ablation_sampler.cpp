// Ablation A2: sampler choice. The paper's Algorithm 2 fills R with i.i.d.
// U(0,1); Genz recommends Richtmyer lattice rules. This bench measures the
// actual convergence of all three samplers on a problem with a known
// answer (exchangeable rho=1/2 orthant: P = 1/(n+1)).
//
// Expectation: Richtmyer converges ~N^-1 vs MC's N^-1/2; scrambled Halton
// degrades in high dimension (bad high-dim projections).
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_common.hpp"
#include "core/sov.hpp"
#include "linalg/matrix.hpp"
#include "stats/qmc.hpp"

int main(int argc, char** argv) {
  using namespace parmvn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::header("Ablation A2", "MC vs Richtmyer vs Halton convergence", args);

  const i64 n = args.quick ? 16 : 64;
  const double truth = 1.0 / static_cast<double>(n + 1);
  la::Matrix sigma(n, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < n; ++i) sigma(i, j) = (i == j) ? 1.0 : 0.5;
  const std::vector<double> a(static_cast<std::size_t>(n), 0.0);
  const std::vector<double> b(static_cast<std::size_t>(n),
                              std::numeric_limits<double>::infinity());

  std::printf("n=%lld truth=%.6e\n", static_cast<long long>(n), truth);
  std::printf("sampler,samples,rel_error,reported_3sigma\n");
  const std::vector<i64> budgets =
      args.full ? std::vector<i64>{512, 2048, 8192, 32768, 131072}
                : std::vector<i64>{512, 2048, 8192, 32768};
  for (const auto kind :
       {stats::SamplerKind::kPseudoMC, stats::SamplerKind::kRichtmyer,
        stats::SamplerKind::kHalton}) {
    for (const i64 total : budgets) {
      engine::EngineOptions opts;
      opts.sampler = kind;
      opts.shifts = 8;
      opts.samples_per_shift = total / 8;
      const engine::QueryResult r =
          core::mvn_probability(sigma.view(), {a, b, 1234}, opts);
      std::printf("%s,%lld,%.3e,%.3e\n", stats::to_string(kind),
                  static_cast<long long>(total),
                  std::fabs(r.prob - truth) / truth, r.error3sigma / truth);
      std::fflush(stdout);
    }
  }
  bench::row_comment(
      "expect richtmyer ~1 order of magnitude below mc at the largest "
      "budget; this is why the server, the examples and bench_e2e ask for "
      "Richtmyer, while EngineOptions keeps the paper listing's plain "
      "U(0,1) by default");
  return 0;
}
