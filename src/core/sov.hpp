// Sequential Separation-of-Variables (Genz 1992) MVN probability — the
// reference oracle the parallel tile implementation is tested against, and
// the natural API for small problems.
//
// Computes  Phi_n(a, b; 0, Sigma) = P(a <= X <= b), X ~ N(0, Sigma),
// via the transformation of paper eq. (2)-(3): after Cholesky Sigma = L L^T,
// the integral becomes an expectation over the unit hypercube, evaluated
// with (quasi-)Monte-Carlo samples organised in randomized shift blocks for
// an error estimate. The budget is fixed: every estimator sweeps all
// samples_per_shift * shifts samples (the engine owns the adaptive stop).
// A NaN limit throws parmvn::Error naming the coordinate.
#pragma once

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
};

struct SovResult {
  double prob = 0.0;
  double error3sigma = 0.0;  // 3-sigma spread of the shift-block means
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

}  // namespace parmvn::core
