// Tests for the covariance kernels: closed-form identities, limits,
// monotonicity and the factory.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/contracts.hpp"
#include "stats/covariance.hpp"

namespace {

using namespace parmvn::stats;

TEST(Matern, HalfSmoothnessIsExponential) {
  const MaternKernel m(2.0, 0.1, 0.5);
  const ExponentialKernel e(2.0, 0.1);
  for (double d : {0.0, 0.01, 0.1, 0.5, 2.0}) {
    EXPECT_NEAR(m(d), e(d), 1e-14) << "d=" << d;
  }
}

TEST(Matern, BesselPathMatchesClosedFormNu15) {
  // nu = 1.5 takes the closed form; nu = 1.5+1e-9 takes the Bessel path.
  const MaternKernel closed(1.0, 0.2, 1.5);
  const MaternKernel bessel(1.0, 0.2, 1.5 + 1e-9);
  for (double d : {0.01, 0.05, 0.2, 0.7, 1.5}) {
    EXPECT_NEAR(bessel(d) / closed(d), 1.0, 1e-6) << "d=" << d;
  }
}

TEST(Matern, BesselPathMatchesClosedFormNu25) {
  const MaternKernel closed(1.0, 0.3, 2.5);
  const MaternKernel bessel(1.0, 0.3, 2.5 + 1e-9);
  for (double d : {0.01, 0.1, 0.4, 1.0}) {
    EXPECT_NEAR(bessel(d) / closed(d), 1.0, 1e-6) << "d=" << d;
  }
}

TEST(Matern, ValueAtZeroIsVarianceAndContinuous) {
  for (double nu : {0.5, 1.0, 1.43391, 2.5, 3.7}) {
    const MaternKernel k(1.7, 0.05, nu);
    EXPECT_DOUBLE_EQ(k(0.0), 1.7);
    // C(d) -> sigma2 as d -> 0 (continuity; also exercises tiny-argument
    // Bessel evaluation).
    EXPECT_NEAR(k(1e-10) / 1.7, 1.0, 1e-5) << "nu=" << nu;
  }
}

TEST(Matern, NeverExceedsVariance) {
  const MaternKernel k(1.0, 0.1, 1.43391);
  for (double d = 1e-9; d < 2.0; d *= 3.0) {
    EXPECT_LE(k(d), 1.0) << "d=" << d;
    EXPECT_GE(k(d), 0.0) << "d=" << d;
  }
}

TEST(Matern, LongDistanceUnderflowsToZero) {
  const MaternKernel k(1.0, 0.001, 1.2);
  EXPECT_EQ(k(10.0), 0.0);  // z = 10000 >> 705
}

class KernelMonotone : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelMonotone, DecreasingInDistance) {
  const std::string kind = GetParam();
  const auto k = make_kernel(kind, 1.0, 0.15, kind == "matern" ? 1.43391 : 1.0);
  double prev = (*k)(0.0);
  for (double d = 0.01; d < 1.0; d += 0.01) {
    const double v = (*k)(d);
    EXPECT_LE(v, prev + 1e-15) << kind << " d=" << d;
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, KernelMonotone,
                         ::testing::Values("matern", "exponential", "gaussian",
                                           "powexp"));

TEST(Kernels, GaussianAndPowexpForms) {
  const GaussianKernel g(2.0, 0.5);
  EXPECT_NEAR(g(0.5), 2.0 * std::exp(-1.0), 1e-15);
  const PoweredExponentialKernel p(1.0, 0.5, 1.0);
  const ExponentialKernel e(1.0, 0.5);
  EXPECT_NEAR(p(0.3), e(0.3), 1e-15);
  const PoweredExponentialKernel p2(1.0, 0.5, 2.0);
  EXPECT_NEAR(p2(0.3), g(0.3) / 2.0, 1e-15);
}

TEST(Kernels, FactoryRejectsUnknownKind) {
  EXPECT_THROW(make_kernel("nope", 1.0, 1.0, 1.0), parmvn::Error);
}

TEST(Kernels, ParameterValidation) {
  EXPECT_THROW(MaternKernel(-1.0, 0.1, 0.5), parmvn::Error);
  EXPECT_THROW(MaternKernel(1.0, 0.0, 0.5), parmvn::Error);
  EXPECT_THROW(MaternKernel(1.0, 0.1, -0.5), parmvn::Error);
  EXPECT_THROW(ExponentialKernel(0.0, 0.1), parmvn::Error);
  EXPECT_THROW(PoweredExponentialKernel(1.0, 0.1, 2.5), parmvn::Error);
  const MaternKernel k(1.0, 0.1, 0.5);
  EXPECT_THROW((void)k(-0.1), parmvn::Error);
}

TEST(Kernels, PaperParameterSets) {
  // The three synthetic datasets of Fig. 1: exponential with ranges
  // 0.033 / 0.1 / 0.234 — correlation at a fixed distance must increase
  // with the range parameter ("weak" to "strong").
  const ExponentialKernel weak(1.0, 0.033);
  const ExponentialKernel medium(1.0, 0.1);
  const ExponentialKernel strong(1.0, 0.234);
  const double d = 0.1;
  EXPECT_LT(weak(d), medium(d));
  EXPECT_LT(medium(d), strong(d));
}

}  // namespace
