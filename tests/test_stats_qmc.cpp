// Tests for prime generation and the QMC point sets (Richtmyer lattice,
// scrambled Halton, pseudo-MC) plus the block error-estimate combiner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "stats/qmc.hpp"
#include "stats/rng.hpp"

namespace {

using namespace parmvn;
using stats::BlockEstimate;
using stats::combine_block_means;
using stats::first_primes;
using stats::PointSet;
using stats::SamplerKind;

TEST(Primes, FirstFew) {
  const auto p = first_primes(10);
  const std::vector<i64> expected{2, 3, 5, 7, 11, 13, 17, 19, 23, 29};
  EXPECT_EQ(p, expected);
}

TEST(Primes, KnownMilestones) {
  EXPECT_EQ(first_primes(100).back(), 541);
  EXPECT_EQ(first_primes(1000).back(), 7919);
  EXPECT_EQ(first_primes(10000).back(), 104729);
}

TEST(Primes, EmptyAndSingle) {
  EXPECT_TRUE(first_primes(0).empty());
  EXPECT_EQ(first_primes(1), std::vector<i64>{2});
}

class PointSetKinds : public ::testing::TestWithParam<SamplerKind> {};

TEST_P(PointSetKinds, ValuesInUnitIntervalAndDeterministic) {
  PointSet ps(GetParam(), 16, 128, 4, 2024);
  EXPECT_EQ(ps.num_samples(), 512);
  for (i64 d : {i64{0}, i64{7}, i64{15}}) {
    for (i64 s = 0; s < ps.num_samples(); s += 37) {
      const double v = ps.value(d, s);
      ASSERT_GE(v, 0.0);
      ASSERT_LT(v, 1.0);
      EXPECT_DOUBLE_EQ(v, ps.value(d, s)) << "must be pure";
    }
  }
  PointSet same(GetParam(), 16, 128, 4, 2024);
  EXPECT_DOUBLE_EQ(ps.value(3, 100), same.value(3, 100));
  PointSet other(GetParam(), 16, 128, 4, 2025);
  bool differs = false;
  for (i64 s = 0; s < 16; ++s)
    differs |= (ps.value(3, s) != other.value(3, s));
  EXPECT_TRUE(differs) << "different seeds must shift the points";
}

TEST_P(PointSetKinds, PerDimensionMeanNearHalf) {
  PointSet ps(GetParam(), 8, 1000, 4, 7);
  for (i64 d = 0; d < 8; ++d) {
    double sum = 0.0;
    for (i64 s = 0; s < ps.num_samples(); ++s) sum += ps.value(d, s);
    const double mean = sum / static_cast<double>(ps.num_samples());
    EXPECT_NEAR(mean, 0.5, 0.02) << "dim " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PointSetKinds,
                         ::testing::Values(SamplerKind::kPseudoMC,
                                           SamplerKind::kRichtmyer,
                                           SamplerKind::kHalton));

TEST(Richtmyer, LowerDiscrepancyThanMC) {
  // Integrate f(u) = prod(u_d) over [0,1]^5 (exact value 1/32). The lattice
  // rule should beat plain MC by a clear margin at equal sample count.
  const i64 dim = 5;
  const i64 n = 4096;
  auto integrate = [&](SamplerKind kind) {
    PointSet ps(kind, dim, n, 1, 99);
    double acc = 0.0;
    for (i64 s = 0; s < n; ++s) {
      double f = 1.0;
      for (i64 d = 0; d < dim; ++d) f *= ps.value(d, s);
      acc += f;
    }
    return acc / static_cast<double>(n);
  };
  const double exact = 1.0 / 32.0;
  const double err_mc = std::fabs(integrate(SamplerKind::kPseudoMC) - exact);
  const double err_qmc = std::fabs(integrate(SamplerKind::kRichtmyer) - exact);
  EXPECT_LT(err_qmc, err_mc) << "mc=" << err_mc << " qmc=" << err_qmc;
  EXPECT_LT(err_qmc, 2e-3);
}

TEST(Richtmyer, ShiftBlocksAreDistinct) {
  PointSet ps(SamplerKind::kRichtmyer, 4, 64, 4, 5);
  // Same intra-block index in different blocks -> shifted copies, not equal.
  bool any_diff = false;
  for (i64 d = 0; d < 4; ++d)
    any_diff |= (ps.value(d, 0) != ps.value(d, 64));
  EXPECT_TRUE(any_diff);
  EXPECT_EQ(ps.shift_of(0), 0);
  EXPECT_EQ(ps.shift_of(63), 0);
  EXPECT_EQ(ps.shift_of(64), 1);
  EXPECT_EQ(ps.shift_of(255), 3);
}

TEST(PointSet, FillRowBitwiseMatchesPerCallValue) {
  // The sample-contiguous sweep reads whole rows; fill_row must reproduce
  // value() bit for bit for every sampler kind, including across shift
  // block boundaries and at ragged offsets. The shifted kinds take the
  // block's offset once per run inside a block, so the runs below start
  // and end mid-block, cross several block boundaries, and are empty.
  for (SamplerKind kind : {SamplerKind::kPseudoMC, SamplerKind::kRichtmyer,
                           SamplerKind::kHalton}) {
    PointSet ps(kind, 6, 20, 5, 777);
    std::vector<double> row(static_cast<std::size_t>(ps.num_samples() + 1));
    for (i64 dim = 0; dim < 6; ++dim) {
      for (const auto& [s0, count] : {std::pair<i64, i64>{0, 100},
                                     {17, 25},  // straddles a shift boundary
                                     {99, 1},
                                     {23, 14},  // mid-block to mid-block
                                     {5, 72},   // crosses 3 boundaries
                                     {40, 0}}) {
        std::fill(row.begin(), row.end(), -1.0);
        ps.fill_row(dim, s0, count, row.data());
        for (i64 j = 0; j < count; ++j)
          EXPECT_EQ(row[static_cast<std::size_t>(j)], ps.value(dim, s0 + j))
              << "kind=" << static_cast<int>(kind) << " dim=" << dim
              << " s0=" << s0 << " j=" << j;
        // Nothing past the run is written (for count = 0, nothing at all).
        EXPECT_EQ(row[static_cast<std::size_t>(count)], -1.0)
            << "kind=" << static_cast<int>(kind) << " s0=" << s0;
      }
    }
  }
}

// The shifted samplers from their definitions, with the fractional part
// taken as x - floor(x): Richtmyer w = frac((local + 1) * frac(sqrt(p_d)) +
// U_shift), Halton w = frac(h(local + 1) + U_shift) with h the radical
// inverse in base p_d under the seed's linear digit scrambling.
// Dimension `dim` takes the prime p = first_primes(dim + 1).back().
double reference_point(SamplerKind kind, i64 dim, i64 p, i64 sps, u64 seed,
                       i64 sample) {
  const auto frac = [](double x) { return x - std::floor(x); };
  const i64 shift = sample / sps;
  const i64 local = sample - shift * sps;
  if (kind == SamplerKind::kRichtmyer) {
    const double alpha = frac(std::sqrt(static_cast<double>(p)));
    const double u = stats::counter_u01(seed ^ 0x7ac3591bd1e8a2c4ULL, dim, shift);
    return frac(static_cast<double>(local + 1) * alpha + u);
  }
  const i64 mult = 1 + static_cast<i64>(stats::mix64(seed ^ static_cast<u64>(p)) %
                                        static_cast<u64>(p - 1));
  const double inv_base = 1.0 / static_cast<double>(p);
  double scale = inv_base;
  double h = 0.0;
  for (i64 k = local + 1; k > 0; k /= p) {
    h += static_cast<double>((k % p * mult) % p) * scale;
    scale *= inv_base;
  }
  const double u = stats::counter_u01(seed ^ 0x2cb9ae11f53dc049ULL, dim, shift);
  return frac(h + u);
}

TEST(PointSet, FillRowMatchesFloorDefinition) {
  // fill_row takes the fractional part by an integer truncation instead of
  // libm floor; over long runs (large lattice multiples, high-dimension
  // primes, several shift blocks) every draw must equal the floor form bit
  // for bit.
  constexpr i64 kDim = 4000;
  constexpr i64 kSps = 60000;
  for (const SamplerKind kind : {SamplerKind::kRichtmyer, SamplerKind::kHalton}) {
    const PointSet ps(kind, kDim, kSps, 3, 2718);
    const std::vector<i64> primes = first_primes(kDim);
    std::vector<double> row(static_cast<std::size_t>(ps.num_samples()));
    for (const i64 dim : {i64{0}, i64{1}, i64{57}, kDim - 1}) {
      const i64 p = primes[static_cast<std::size_t>(dim)];
      ps.fill_row(dim, 0, ps.num_samples(), row.data());
      i64 mismatches = 0;
      for (i64 s = 0; s < ps.num_samples(); ++s)
        mismatches += row[static_cast<std::size_t>(s)] !=
                      reference_point(kind, dim, p, kSps, 2718, s);
      EXPECT_EQ(mismatches, 0)
          << "kind=" << static_cast<int>(kind) << " dim=" << dim;
    }
  }
}

TEST(PointSet, PreconditionViolations) {
  EXPECT_THROW(PointSet(SamplerKind::kPseudoMC, 0, 10, 1, 1), parmvn::Error);
  EXPECT_THROW(PointSet(SamplerKind::kPseudoMC, 2, 0, 1, 1), parmvn::Error);
  EXPECT_THROW(PointSet(SamplerKind::kPseudoMC, 2, 10, 0, 1), parmvn::Error);
  PointSet ps(SamplerKind::kPseudoMC, 2, 10, 1, 1);
  EXPECT_THROW((void)ps.value(-1, 0), parmvn::Error);
  EXPECT_THROW((void)ps.value(0, 10), parmvn::Error);
}

TEST(CombineBlockMeans, MeanAndSpread) {
  const BlockEstimate e = combine_block_means({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(e.mean, 2.5);
  // sample sd = sqrt(5/3), se = sd/2, 3-sigma = 1.5*sd
  EXPECT_NEAR(e.error3sigma, 3.0 * std::sqrt(5.0 / 3.0 / 4.0), 1e-12);
}

TEST(CombineBlockMeans, SingleBlockHasInfiniteError) {
  // Regression: a lone block used to report error3sigma == 0.0, which an
  // error-budget-driven caller reads as exact convergence. One block gives
  // no spread information — the estimate must be infinite.
  const BlockEstimate e = combine_block_means({0.7});
  EXPECT_DOUBLE_EQ(e.mean, 0.7);
  EXPECT_TRUE(std::isinf(e.error3sigma));
  EXPECT_GT(e.error3sigma, 0.0);
}

TEST(CombineBlockMeans, EmptyThrows) {
  EXPECT_THROW(combine_block_means({}), parmvn::Error);
}

}  // namespace
