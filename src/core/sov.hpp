// Small-problem MVN probability and Genz's variable reordering.
//
// Computes  Phi_n(a, b; 0, Sigma) = P(a <= X <= b), X ~ N(0, Sigma),
// via the separation-of-variables transformation of paper eq. (2)-(3):
// after Cholesky Sigma = L L^T, the integral becomes an expectation over
// the unit hypercube, evaluated with (quasi-)Monte-Carlo samples organised
// in randomized shift blocks for an error estimate. mvn_probability is the
// one-call form of that estimator for a covariance held in memory: one
// dense tile of size n, factored and swept by the engine (Algorithm 2 with
// a single tile row), so it computes exactly what every other caller of
// engine::PmvnEngine computes.
#pragma once

#include <span>
#include <vector>

#include "engine/pmvn_engine.hpp"
#include "linalg/matrix.hpp"

namespace parmvn::core {

/// MVN probability of `limits` under N(0, sigma). Factors a copy of sigma
/// as one dense tile (CholeskyFactor::factor, FactorSpec{kDense, n}) on an
/// inline runtime and evaluates the single query with `opts`. A NaN limit
/// throws parmvn::Error naming the coordinate; a non-SPD sigma throws.
[[nodiscard]] engine::QueryResult mvn_probability(
    la::ConstMatrixView sigma, const engine::LimitSet& limits,
    const engine::EngineOptions& opts = {});

/// Genz's variable-reordering heuristic: greedily pick, at each elimination
/// step, the variable with the smallest conditional probability mass
/// (hardest constraint first), which reduces the variance of the SOV
/// estimator. Swaps sigma's rows/columns and a/b in place, leaves the
/// Cholesky factor of the permuted matrix in sigma's lower triangle, and
/// returns the permutation applied: variable i of the result is variable
/// perm[i] of the input. An ablation in the benches quantifies the effect.
std::vector<i64> genz_reorder(la::MatrixView sigma, std::span<double> a,
                              std::span<double> b);

}  // namespace parmvn::core
