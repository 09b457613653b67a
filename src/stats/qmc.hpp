// Sample generators for the SOV integrand: plain pseudo-Monte-Carlo (what
// the paper's Algorithm 2 uses for the matrix R) and randomized
// quasi-Monte-Carlo rules (Richtmyer/Kronecker lattice, scrambled Halton)
// as recommended by Genz for faster convergence.
//
// A PointSet is a *pure function* (dim index, sample index) -> U(0,1); this
// statelessness is what lets concurrent tasks fill different tiles of R
// reproducibly regardless of scheduling order.
//
// Samples are organised in `shifts` blocks. Each block uses an independent
// random shift (QMC) or an independent stream (MC); block means provide the
// classic 3-sigma error estimate of randomized QMC.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace parmvn::stats {

enum class SamplerKind {
  kPseudoMC,   // i.i.d. U(0,1), as in the paper's Algorithm 2 (matrix R)
  kRichtmyer,  // Kronecker lattice with sqrt(prime) generators + random shift
  kHalton,     // scrambled Halton radical-inverse (ablation baseline)
};

const char* to_string(SamplerKind kind) noexcept;

/// First `count` prime numbers.
std::vector<i64> first_primes(i64 count);

/// Deterministic sample set of `num_samples()` points in [0,1)^dim.
class PointSet {
 public:
  /// @param dim        dimensionality (rows of R in Algorithm 2)
  /// @param samples_per_shift  points per randomized block
  /// @param num_shifts independent randomized blocks (>=1)
  PointSet(SamplerKind kind, i64 dim, i64 samples_per_shift, int num_shifts,
           u64 seed);

  /// Coordinate `dim_index` of global sample `sample_index`.
  [[nodiscard]] double value(i64 dim_index, i64 sample_index) const;

  /// out[j] = value(dim_index, sample0 + j) for j in [0, count): one panel
  /// row of the sample-contiguous QMC sweep, bitwise identical to per-call
  /// value() but with the kind dispatch and bounds checks hoisted out of
  /// the loop.
  void fill_row(i64 dim_index, i64 sample0, i64 count, double* out) const;

  [[nodiscard]] i64 dim() const noexcept { return dim_; }
  [[nodiscard]] i64 num_samples() const noexcept {
    return samples_per_shift_ * num_shifts_;
  }
  [[nodiscard]] i64 samples_per_shift() const noexcept {
    return samples_per_shift_;
  }
  [[nodiscard]] int num_shifts() const noexcept { return num_shifts_; }
  [[nodiscard]] int shift_of(i64 sample_index) const noexcept {
    return static_cast<int>(sample_index / samples_per_shift_);
  }
  [[nodiscard]] SamplerKind kind() const noexcept { return kind_; }

 private:
  SamplerKind kind_;
  i64 dim_;
  i64 samples_per_shift_;
  int num_shifts_;
  u64 seed_;
  std::vector<double> alpha_;     // Richtmyer generators frac(sqrt(p_i))
  std::vector<i64> halton_base_;  // Halton bases (primes)
};

/// Mean and 3-sigma error estimate over per-shift block means.
struct BlockEstimate {
  double mean = 0.0;
  double error3sigma = 0.0;
};

/// Combine per-shift means into an estimate; `block_means.size()` must equal
/// the number of shifts used to produce them. A single block carries no
/// spread information, so its error3sigma is +infinity (never 0, which any
/// error-budget-driven caller would read as exact convergence); callers that
/// gate decisions on the estimate must use at least two blocks.
BlockEstimate combine_block_means(const std::vector<double>& block_means);

}  // namespace parmvn::stats
