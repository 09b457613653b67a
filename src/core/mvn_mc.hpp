// Plain Monte-Carlo MVN probability (the paper's "naive MC" baseline): draw
// x = L z and count box membership. Converges like sigma/sqrt(N) with no
// dimension-robust variance reduction — the method the SOV transform
// replaces, kept as a baseline and cross-check.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace parmvn::core {

struct MvnMcResult {
  double prob = 0.0;
  double error3sigma = 0.0;  // binomial 3-sigma
  double seconds = 0.0;
};

/// A NaN limit throws parmvn::Error naming the coordinate.
[[nodiscard]] MvnMcResult mvn_probability_mc(la::ConstMatrixView l,
                                             std::span<const double> a,
                                             std::span<const double> b,
                                             i64 num_samples, u64 seed);

}  // namespace parmvn::core
