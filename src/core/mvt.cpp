#include "core/mvt.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "linalg/potrf.hpp"
#include "stats/normal.hpp"
#include "stats/qmc.hpp"

namespace parmvn::core {

namespace {

constexpr double kUEps = 1e-16;

// Regularised lower incomplete gamma P(k, x) by series / continued fraction
// (Numerical Recipes gammp) — the chi^2 CDF is P(nu/2, x/2).
double gammp(double k, double x) {
  PARMVN_EXPECTS(k > 0.0 && x >= 0.0);
  if (x == 0.0) return 0.0;
  if (x < k + 1.0) {
    // Series representation.
    double ap = k;
    double sum = 1.0 / k;
    double del = sum;
    for (int i = 0; i < 500; ++i) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::fabs(del) < std::fabs(sum) * 1e-16) break;
    }
    return sum * std::exp(-x + k * std::log(x) - std::lgamma(k));
  }
  // Continued fraction for Q(k, x), then P = 1 - Q.
  double b = x + 1.0 - k;
  double c = 1e300;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - k);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < 1e-300) d = 1e-300;
    c = b + an / c;
    if (std::fabs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-16) break;
  }
  const double q = std::exp(-x + k * std::log(x) - std::lgamma(k)) * h;
  return 1.0 - q;
}

}  // namespace

double chi_scale_from_uniform(double u, double nu) {
  PARMVN_EXPECTS(nu > 0.0);
  u = std::clamp(u, kUEps, 1.0 - kUEps);
  // Invert the chi^2_nu CDF with a guarded Newton iteration started at the
  // Wilson-Hilferty approximation.
  const double k = 0.5 * nu;
  const double z = stats::norm_quantile(u);
  const double wh = nu * std::pow(1.0 - 2.0 / (9.0 * nu) +
                                      z * std::sqrt(2.0 / (9.0 * nu)),
                                  3.0);
  double x = std::max(wh, 1e-8);
  for (int it = 0; it < 60; ++it) {
    const double f = gammp(k, 0.5 * x) - u;
    // chi^2 pdf.
    const double logpdf = (k - 1.0) * std::log(0.5 * x) - 0.5 * x -
                          std::lgamma(k) - std::log(2.0);
    const double pdf = std::exp(logpdf);
    if (pdf <= 0.0) break;
    double step = f / pdf;
    // Guard the step to keep x positive and the iteration stable.
    step = std::clamp(step, -0.5 * x, 0.5 * x + 1.0);
    x -= step;
    if (std::fabs(step) < 1e-12 * (1.0 + x)) break;
  }
  return std::sqrt(std::max(x, 1e-300) / nu);
}

SovResult mvt_probability_chol(la::ConstMatrixView l, double nu,
                               std::span<const double> a,
                               std::span<const double> b,
                               const SovOptions& opts) {
  const i64 n = l.rows;
  PARMVN_EXPECTS(l.cols == n);
  PARMVN_EXPECTS(nu > 0.0);
  PARMVN_EXPECTS(static_cast<i64>(a.size()) == n &&
                 static_cast<i64>(b.size()) == n);

  // Dimension 0 of the point set drives the chi^2 scaling; dimensions
  // 1..n drive the Genz recursion (Genz & Bretz's MVT algorithm). The
  // recursion itself runs through the shared sample-contiguous panel sweep
  // (dim0 = 1) with the chi scale applied as a per-sample limit scaling —
  // bitwise identical to the scalar sample-major loop on the fallback
  // build (the batched Phi/Phi^-1 primitives' documented contract).
  const stats::PointSet pts(opts.sampler, n + 1, opts.samples_per_shift,
                            opts.shifts, opts.seed);
  // Chi scales for the whole budget up front: one quantile inversion per
  // sample, a ~1/n fraction of the sweep's transcendental work, so the
  // adaptive early-stop waste is negligible.
  std::vector<double> scale(static_cast<std::size_t>(pts.num_samples()));
  for (i64 s = 0; s < pts.num_samples(); ++s)
    scale[static_cast<std::size_t>(s)] =
        chi_scale_from_uniform(pts.value(0, s), nu);
  return detail::sov_block_estimate(l, a, b, pts, /*dim0=*/1, scale, opts);
}

SovResult mvt_probability(la::ConstMatrixView sigma, double nu,
                          std::span<const double> a, std::span<const double> b,
                          const SovOptions& opts) {
  la::Matrix l = la::to_matrix(sigma);
  la::potrf_lower_or_throw(l.view());
  return mvt_probability_chol(l.view(), nu, a, b, opts);
}

}  // namespace parmvn::core
