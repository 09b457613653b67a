// Ablation A4: Genz variable-reordering heuristic. Reordering variables so
// the tightest constraints integrate first reduces the variance of the SOV
// estimator; the confidence-region algorithm's opM ordering (by marginal
// probability) has the same flavour. Measures estimator spread across seeds
// with and without reordering on an inhomogeneous box problem.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/sov.hpp"
#include "linalg/matrix.hpp"
#include "stats/qmc.hpp"

int main(int argc, char** argv) {
  using namespace parmvn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::header("Ablation A4", "Genz variable reordering effect", args);

  const i64 n = args.quick ? 16 : 48;
  // AR(1)-style covariance with strongly varying limit widths: the worst
  // case for a fixed ordering.
  la::Matrix sigma(n, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < n; ++i)
      sigma(i, j) = std::pow(0.7, std::abs(static_cast<double>(i - j)));
  std::vector<double> a(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    // Alternate tight and loose constraints.
    const bool tight = (i % 3 == 0);
    a[static_cast<std::size_t>(i)] = tight ? 1.0 : -2.0;
    b[static_cast<std::size_t>(i)] = tight ? 1.5 : 2.5;
  }

  // Genz's order, applied to sigma and the limits: the permuted matrix is
  // rebuilt from the original (genz_reorder leaves its factor behind).
  la::Matrix scratch = la::to_matrix(sigma.view());
  std::vector<double> a_r = a, b_r = b;
  const std::vector<i64> perm = core::genz_reorder(scratch.view(), a_r, b_r);
  la::Matrix sigma_r(n, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < n; ++i)
      sigma_r(i, j) = sigma(perm[static_cast<std::size_t>(i)],
                            perm[static_cast<std::size_t>(j)]);

  const int trials = args.quick ? 8 : 24;
  const i64 samples = 2000;
  engine::EngineOptions opts;
  opts.samples_per_shift = samples / 10;
  opts.shifts = 10;
  opts.sampler = stats::SamplerKind::kRichtmyer;
  auto spread = [&](const la::Matrix& s, const std::vector<double>& lo,
                    const std::vector<double>& hi) {
    std::vector<double> estimates;
    for (int trial = 0; trial < trials; ++trial) {
      const u64 seed = 9000 + static_cast<u64>(trial);
      estimates.push_back(
          core::mvn_probability(s.view(), {lo, hi, seed}, opts).prob);
    }
    double mean = 0.0;
    for (double e : estimates) mean += e;
    mean /= estimates.size();
    double var = 0.0;
    for (double e : estimates) var += (e - mean) * (e - mean);
    var /= (estimates.size() - 1);
    return std::pair<double, double>{mean, std::sqrt(var)};
  };

  const auto [mean_plain, sd_plain] = spread(sigma, a, b);
  const auto [mean_reord, sd_reord] = spread(sigma_r, a_r, b_r);
  std::printf("ordering,mean,sd_across_seeds,relative_sd\n");
  std::printf("original,%.6e,%.2e,%.3f%%\n", mean_plain, sd_plain,
              100.0 * sd_plain / mean_plain);
  std::printf("genz_reordered,%.6e,%.2e,%.3f%%\n", mean_reord, sd_reord,
              100.0 * sd_reord / mean_reord);
  std::printf("variance_reduction,%.2fx\n",
              (sd_plain * sd_plain) / (sd_reord * sd_reord));
  bench::row_comment(
      "expect the reordered estimator to show a materially smaller spread "
      "at equal sample budget (Genz & Bretz 2009, Sec. 4.1.3)");
  return 0;
}
