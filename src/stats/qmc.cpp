#include "stats/qmc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "stats/rng.hpp"

namespace parmvn::stats {

const char* to_string(SamplerKind kind) noexcept {
  switch (kind) {
    case SamplerKind::kPseudoMC: return "mc";
    case SamplerKind::kRichtmyer: return "richtmyer";
    case SamplerKind::kHalton: return "halton";
  }
  return "?";
}

std::vector<i64> first_primes(i64 count) {
  PARMVN_EXPECTS(count >= 0);
  std::vector<i64> primes;
  if (count == 0) return primes;
  primes.reserve(static_cast<std::size_t>(count));
  // Upper bound on the count-th prime (Rosser): n(ln n + ln ln n) for n>=6.
  const double n = static_cast<double>(count < 6 ? 6 : count);
  const i64 bound =
      static_cast<i64>(n * (std::log(n) + std::log(std::log(n)))) + 16;
  std::vector<bool> composite(static_cast<std::size_t>(bound + 1), false);
  for (i64 p = 2; p <= bound && static_cast<i64>(primes.size()) < count; ++p) {
    if (composite[static_cast<std::size_t>(p)]) continue;
    primes.push_back(p);
    for (i64 q = p * p; q <= bound; q += p)
      composite[static_cast<std::size_t>(q)] = true;
  }
  PARMVN_ENSURES(static_cast<i64>(primes.size()) == count);
  return primes;
}

namespace {

// Fractional part for 0 <= x < 2^53, where every draw's argument lies: the
// truncating conversion is exact there, so this equals x - std::floor(x)
// bit for bit (PointSet.FillRowMatchesFloorDefinition pins it) without a
// libm call per draw.
inline double frac(double x) noexcept {
  return x - static_cast<double>(static_cast<i64>(x));
}

// Scrambled radical inverse of `index` in base `base` with a multiplicative
// digit permutation derived from `seed` (Faure-style linear scrambling).
double scrambled_radical_inverse(i64 index, i64 base, u64 seed) {
  // Multiplier coprime with base: any value in [1, base).
  const i64 mult =
      1 + static_cast<i64>(mix64(seed ^ static_cast<u64>(base)) %
                           static_cast<u64>(base - 1));
  double inv_base = 1.0 / static_cast<double>(base);
  double scale = inv_base;
  double value = 0.0;
  i64 n = index;
  while (n > 0) {
    const i64 digit = (n % base * mult) % base;
    value += static_cast<double>(digit) * scale;
    scale *= inv_base;
    n /= base;
  }
  return value;
}

// Split the samples [sample0, sample0 + count) into runs inside one shift
// block: fn(j, local0, run, shift) covers out[j, j + run), whose first
// sample is local index local0 of block `shift`. The block's random offset
// is constant over a run, so fill_row hashes it once per run, not per entry.
template <class Fn>
void for_each_shift_run(i64 sample0, i64 count, i64 samples_per_shift, Fn fn) {
  for (i64 j = 0; j < count;) {
    const i64 s = sample0 + j;
    const i64 shift = s / samples_per_shift;
    const i64 local0 = s - shift * samples_per_shift;
    const i64 run = std::min(count - j, samples_per_shift - local0);
    fn(j, local0, run, static_cast<int>(shift));
    j += run;
  }
}

}  // namespace

PointSet::PointSet(SamplerKind kind, i64 dim, i64 samples_per_shift,
                   int num_shifts, u64 seed)
    : kind_(kind),
      dim_(dim),
      samples_per_shift_(samples_per_shift),
      num_shifts_(num_shifts),
      seed_(seed) {
  PARMVN_EXPECTS(dim >= 1);
  PARMVN_EXPECTS(samples_per_shift >= 1);
  PARMVN_EXPECTS(num_shifts >= 1);
  if (kind_ == SamplerKind::kRichtmyer) {
    const std::vector<i64> primes = first_primes(dim_);
    alpha_.resize(static_cast<std::size_t>(dim_));
    for (i64 i = 0; i < dim_; ++i) {
      alpha_[static_cast<std::size_t>(i)] =
          frac(std::sqrt(static_cast<double>(primes[static_cast<std::size_t>(i)])));
    }
  } else if (kind_ == SamplerKind::kHalton) {
    halton_base_ = first_primes(dim_);
  }
}

double PointSet::value(i64 dim_index, i64 sample_index) const {
  PARMVN_EXPECTS(dim_index >= 0 && dim_index < dim_);
  PARMVN_EXPECTS(sample_index >= 0 && sample_index < num_samples());
  const int shift = shift_of(sample_index);
  const i64 local = sample_index - static_cast<i64>(shift) * samples_per_shift_;
  switch (kind_) {
    case SamplerKind::kPseudoMC:
      return counter_u01(seed_, dim_index,
                         sample_index + 0x51ed2701);  // offset decorrelates
                                                      // from other users of
                                                      // the same seed
    case SamplerKind::kRichtmyer: {
      const double shift_u = counter_u01(seed_ ^ 0x7ac3591bd1e8a2c4ULL,
                                         dim_index, shift);
      const double a = alpha_[static_cast<std::size_t>(dim_index)];
      return frac(static_cast<double>(local + 1) * a + shift_u);
    }
    case SamplerKind::kHalton: {
      const double shift_u = counter_u01(seed_ ^ 0x2cb9ae11f53dc049ULL,
                                         dim_index, shift);
      const double h = scrambled_radical_inverse(
          local + 1, halton_base_[static_cast<std::size_t>(dim_index)], seed_);
      return frac(h + shift_u);
    }
  }
  PARMVN_ASSERT(false);
  return 0.0;
}

void PointSet::fill_row(i64 dim_index, i64 sample0, i64 count,
                        double* out) const {
  PARMVN_EXPECTS(dim_index >= 0 && dim_index < dim_);
  PARMVN_EXPECTS(count >= 0);
  PARMVN_EXPECTS(sample0 >= 0 && sample0 + count <= num_samples());
  switch (kind_) {
    case SamplerKind::kPseudoMC:
      for (i64 j = 0; j < count; ++j)
        out[j] = counter_u01(seed_, dim_index, sample0 + j + 0x51ed2701);
      return;
    case SamplerKind::kRichtmyer: {
      const double a = alpha_[static_cast<std::size_t>(dim_index)];
      const auto run_fn = [&](i64 j, i64 local0, i64 run, int shift) {
        const double shift_u =
            counter_u01(seed_ ^ 0x7ac3591bd1e8a2c4ULL, dim_index, shift);
        for (i64 k = 0; k < run; ++k)
          out[j + k] = frac(static_cast<double>(local0 + k + 1) * a + shift_u);
      };
      for_each_shift_run(sample0, count, samples_per_shift_, run_fn);
      return;
    }
    case SamplerKind::kHalton: {
      const i64 base = halton_base_[static_cast<std::size_t>(dim_index)];
      const auto run_fn = [&](i64 j, i64 local0, i64 run, int shift) {
        const double shift_u =
            counter_u01(seed_ ^ 0x2cb9ae11f53dc049ULL, dim_index, shift);
        for (i64 k = 0; k < run; ++k) {
          const double h =
              scrambled_radical_inverse(local0 + k + 1, base, seed_);
          out[j + k] = frac(h + shift_u);
        }
      };
      for_each_shift_run(sample0, count, samples_per_shift_, run_fn);
      return;
    }
  }
  PARMVN_ASSERT(false);
}

BlockEstimate combine_block_means(const std::vector<double>& block_means) {
  PARMVN_EXPECTS(!block_means.empty());
  const auto count = static_cast<double>(block_means.size());
  double mean = 0.0;
  for (const double m : block_means) mean += m;
  mean /= count;
  double var = 0.0;
  for (const double m : block_means) var += (m - mean) * (m - mean);
  BlockEstimate est;
  est.mean = mean;
  if (block_means.size() > 1) {
    var /= (count - 1.0);
    est.error3sigma = 3.0 * std::sqrt(var / count);
  } else {
    // A lone block carries no spread information. Returning 0 here would be
    // indistinguishable from exact convergence — an adaptive caller would
    // stop after its first shift every time — so the honest answer is an
    // infinite error bar.
    est.error3sigma = std::numeric_limits<double>::infinity();
  }
  return est;
}

}  // namespace parmvn::stats
