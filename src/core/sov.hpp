// Sequential Separation-of-Variables (Genz 1992) MVN probability — the
// reference oracle the parallel tile implementation is tested against, and
// the natural API for small problems.
//
// Computes  Phi_n(a, b; 0, Sigma) = P(a <= X <= b), X ~ N(0, Sigma),
// via the transformation of paper eq. (2)-(3): after Cholesky Sigma = L L^T,
// the integral becomes an expectation over the unit hypercube, evaluated
// with (quasi-)Monte-Carlo samples organised in randomized shift blocks for
// an error estimate.
#pragma once

#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "stats/qmc.hpp"

namespace parmvn::core {

struct SovOptions {
  i64 samples_per_shift = 500;
  int shifts = 20;
  stats::SamplerKind sampler = stats::SamplerKind::kRichtmyer;
  u64 seed = 42;
  /// Error budget: when > 0 the estimator evaluates shift block by shift
  /// block and stops as soon as error3sigma <= abs_tol (never before
  /// min_shifts blocks, never beyond `shifts` — the fixed budget is the
  /// cap). 0 keeps the classic fixed-budget sweep, bitwise unchanged.
  double abs_tol = 0.0;
  /// Blocks evaluated before the first stop decision (>= 2: a lone block's
  /// error estimate is infinite and must never gate a stop).
  int min_shifts = 2;
  /// Decision threshold: when finite, the block-adaptive path also engages
  /// (even with abs_tol == 0) and stops as soon as the running estimate
  /// clears the threshold by its 3-sigma band — the per-query contract the
  /// engine's adaptive tier uses, here available to the sequential oracles
  /// (and through mvt_probability_chol, to the Student-t path). NaN (the
  /// default) disables it; with abs_tol also 0 the classic fixed-budget
  /// sweep stays bitwise unchanged.
  double decision = std::numeric_limits<double>::quiet_NaN();

  [[nodiscard]] i64 total_samples() const noexcept {
    return samples_per_shift * static_cast<i64>(shifts);
  }
};

struct SovResult {
  double prob = 0.0;
  double error3sigma = 0.0;  // 3-sigma spread of the shift-block means
  i64 samples_used = 0;      // samples actually evaluated
  int shifts_used = 0;       // shift blocks actually evaluated
  /// Adaptive paths: whether an early-stop criterion (abs_tol or decision
  /// clearance) was met before the budget cap. Always true on the classic
  /// fixed-budget sweep (the full budget *is* the contract there).
  bool converged = true;
};

/// MVN probability given the lower Cholesky factor of Sigma.
[[nodiscard]] SovResult mvn_probability_chol(la::ConstMatrixView l,
                                             std::span<const double> a,
                                             std::span<const double> b,
                                             const SovOptions& opts = {});

/// Convenience: factorises a copy of Sigma internally.
[[nodiscard]] SovResult mvn_probability(la::ConstMatrixView sigma,
                                        std::span<const double> a,
                                        std::span<const double> b,
                                        const SovOptions& opts = {});

/// All prefix probabilities in one sweep: out[i] = P(a_j <= X_j <= b_j for
/// all j <= i) under the *given variable order*. The SOV integrand is a
/// product over dimensions, so the running product after row i is exactly
/// the MVN probability of the first i+1 variables — this is what makes the
/// confidence-region sweep one factorization + one integration instead of n
/// of them.
[[nodiscard]] std::vector<double> mvn_prefix_probabilities_chol(
    la::ConstMatrixView l, std::span<const double> a,
    std::span<const double> b, const SovOptions& opts = {});

/// Genz's variable-reordering heuristic: greedily pick, at each elimination
/// step, the variable with the smallest conditional probability mass
/// (hardest constraint first), which reduces the variance of the SOV
/// estimator. Reorders sigma/a/b in place and returns the permutation
/// applied. An ablation in the benches quantifies the effect.
std::vector<i64> genz_reorder(la::MatrixView sigma, std::span<double> a,
                              std::span<double> b);

namespace detail {

/// Shared sample-contiguous panel sweep of the sequential estimators (MVN
/// and MVT): runs the QMC tile kernel over panels of samples against the
/// whole factor (one "tile" of size n), handing each finished panel's
/// per-sample probability products to `consume(s0, pc, p)` in ascending
/// sample order. Panelling is exact — per-sample values are independent of
/// the chunk boundaries.
/// @param dim0   point-set dimension feeding tile row 0 (MVT passes 1: its
///               dimension 0 drives the chi^2 scale draw)
/// @param sample0, count  global sample range to sweep
/// @param scale  optional per-sample limit scaling, indexed by *global*
///               sample (empty = none): panel limits become scale[s] * a[i]
///               — the MVT chi scaling
/// @param prefix_acc optional length-n prefix accumulator (see
///               qmc_tile_kernel)
void sov_panel_sweep(
    la::ConstMatrixView l, std::span<const double> a,
    std::span<const double> b, const stats::PointSet& pts, i64 dim0,
    i64 sample0, i64 count, std::span<const double> scale, double* prefix_acc,
    const std::function<void(i64, i64, const double*)>& consume);

/// The shared block estimator over sov_panel_sweep: classic fixed budget
/// when opts.abs_tol == 0 (bitwise identical to the pre-adaptive code),
/// else shift-block-adaptive with early stop on the running 3-sigma
/// estimate.
[[nodiscard]] SovResult sov_block_estimate(la::ConstMatrixView l,
                                           std::span<const double> a,
                                           std::span<const double> b,
                                           const stats::PointSet& pts,
                                           i64 dim0,
                                           std::span<const double> scale,
                                           const SovOptions& opts);

}  // namespace detail

}  // namespace parmvn::core
