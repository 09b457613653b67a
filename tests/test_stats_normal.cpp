// Tests for the univariate normal kernels: reference values, symmetry,
// quantile/CDF roundtrips, tail stability, and batch-vs-scalar agreement
// for the four *_batch primitives across central/tail/endpoint/NaN inputs.
//
// Batch agreement contract: on the scalar fallback build
// (norm_batch_vectorized() == false, e.g. PARMVN_KERNEL_NATIVE=OFF) every
// batch result is bitwise identical to the scalar routine; on the native
// vector build it agrees to <= 1e-14 relative, with endpoints/NaN/far-tail
// lanes still bitwise (they are delegated to the scalar routines).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/types.hpp"
#include "stats/normal.hpp"

namespace {

using parmvn::i64;
using parmvn::stats::norm_batch_vectorized;
using parmvn::stats::norm_cdf;
using parmvn::stats::norm_cdf_and_diff_batch;
using parmvn::stats::norm_cdf_batch;
using parmvn::stats::norm_cdf_diff;
using parmvn::stats::norm_cdf_diff_batch;
using parmvn::stats::norm_logcdf;
using parmvn::stats::norm_pdf;
using parmvn::stats::norm_quantile;
using parmvn::stats::norm_quantile_batch;

constexpr double kInf = std::numeric_limits<double>::infinity();

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// got ~ want under the batch contract: bitwise on the fallback path (and
// for non-finite / exactly-saturated values on every path), <= `rel` x
// |want| + `abs_floor` on the native path.
void expect_batch_agrees(double got, double want, double rel, double abs_floor,
                         const char* what, double arg) {
  if (!norm_batch_vectorized() || !std::isfinite(want)) {
    EXPECT_TRUE(bitwise_equal(got, want) ||
                (std::isnan(got) && std::isnan(want)))
        << what << "(" << arg << "): got " << got << " want " << want;
    return;
  }
  EXPECT_NEAR(got, want, rel * std::fabs(want) + abs_floor)
      << what << "(" << arg << ")";
}

TEST(NormPdf, ReferenceValues) {
  EXPECT_NEAR(norm_pdf(0.0), 0.3989422804014327, 1e-16);
  EXPECT_NEAR(norm_pdf(1.0), 0.24197072451914337, 1e-16);
  EXPECT_NEAR(norm_pdf(-2.0), 0.05399096651318806, 1e-16);
}

TEST(NormCdf, ReferenceValues) {
  // Reference values from Abramowitz&Stegun / R pnorm.
  EXPECT_DOUBLE_EQ(norm_cdf(0.0), 0.5);
  EXPECT_NEAR(norm_cdf(1.0), 0.8413447460685429, 1e-15);
  EXPECT_NEAR(norm_cdf(-1.0), 0.15865525393145705, 1e-15);
  EXPECT_NEAR(norm_cdf(1.96), 0.9750021048517795, 1e-15);
  EXPECT_NEAR(norm_cdf(-1.96), 0.024997895148220435, 1e-15);
  EXPECT_NEAR(norm_cdf(3.0), 0.9986501019683699, 1e-15);
  EXPECT_NEAR(norm_cdf(-5.0) / 2.866515718791933e-07, 1.0, 1e-9);
  EXPECT_NEAR(norm_cdf(-10.0) / 7.619853024160489e-24, 1.0, 1e-9);
}

TEST(NormCdf, Endpoints) {
  EXPECT_DOUBLE_EQ(norm_cdf(-kInf), 0.0);
  EXPECT_DOUBLE_EQ(norm_cdf(kInf), 1.0);
  EXPECT_EQ(norm_cdf(-40.0), 0.0);  // underflows cleanly
  EXPECT_DOUBLE_EQ(norm_cdf(40.0), 1.0);
}

TEST(NormCdf, Symmetry) {
  for (double x : {0.1, 0.5, 1.0, 2.0, 3.7, 6.5}) {
    EXPECT_NEAR(norm_cdf(x) + norm_cdf(-x), 1.0, 1e-15) << "x=" << x;
  }
}

class QuantileRoundtrip : public ::testing::TestWithParam<double> {};

TEST_P(QuantileRoundtrip, QuantileInvertsCdf) {
  const double x = GetParam();
  const double p = norm_cdf(x);
  const double back = norm_quantile(p);
  // Near the tails the CDF loses resolution, so compare in x with a tolerance
  // scaled by the local derivative.
  EXPECT_NEAR(back, x, 1e-9 * (1.0 + std::fabs(x))) << "x=" << x;
}

// Positive arguments stop at 5: beyond that 1-Phi(x) is below the spacing of
// doubles around 1, so the roundtrip is resolution-limited by IEEE754, not
// by the quantile implementation (the left tail covers large |x| instead).
INSTANTIATE_TEST_SUITE_P(SweepX, QuantileRoundtrip,
                         ::testing::Values(-8.0, -5.0, -3.0, -1.5, -0.5, -0.1,
                                           0.0, 0.1, 0.7, 1.0, 2.5, 4.0, 5.0));

TEST(NormQuantile, ReferenceValues) {
  EXPECT_DOUBLE_EQ(norm_quantile(0.5), 0.0);
  EXPECT_NEAR(norm_quantile(0.975), 1.959963984540054, 1e-12);
  EXPECT_NEAR(norm_quantile(0.025), -1.959963984540054, 1e-12);
  EXPECT_NEAR(norm_quantile(0.84134474606854293), 1.0, 1e-12);
  EXPECT_NEAR(norm_quantile(1e-10), -6.361340902404056, 1e-9);
}

TEST(NormQuantile, Endpoints) {
  EXPECT_EQ(norm_quantile(0.0), -kInf);
  EXPECT_EQ(norm_quantile(1.0), kInf);
  EXPECT_TRUE(std::isnan(norm_quantile(std::nan(""))));
}

TEST(NormQuantile, MonotoneOnGrid) {
  double prev = -kInf;
  for (int i = 1; i < 1000; ++i) {
    const double p = static_cast<double>(i) / 1000.0;
    const double q = norm_quantile(p);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(NormLogCdf, MatchesLogOfCdfInBulk) {
  for (double x : {-5.0, -2.0, -1.0, 0.0, 1.0, 3.0}) {
    EXPECT_NEAR(norm_logcdf(x), std::log(norm_cdf(x)), 1e-12) << "x=" << x;
  }
}

TEST(NormLogCdf, FarTailFiniteAndOrdered) {
  // Where norm_cdf underflows to 0, logcdf must stay finite and decreasing.
  double prev = norm_logcdf(-30.0);
  for (double x : {-40.0, -60.0, -100.0, -200.0}) {
    const double lc = norm_logcdf(x);
    EXPECT_TRUE(std::isfinite(lc)) << "x=" << x;
    EXPECT_LT(lc, prev);
    prev = lc;
  }
  // Asymptotic check at x=-40: log Phi(x) ~ -x^2/2 - log(-x) - log(2pi)/2.
  const double x = -40.0;
  const double approx = -0.5 * x * x - std::log(40.0) - 0.9189385332046727;
  EXPECT_NEAR(norm_logcdf(x) / approx, 1.0, 1e-3);
}

TEST(NormCdfDiff, AgreesWithDirectDifference) {
  for (double a : {-3.0, -1.0, 0.0, 0.5}) {
    for (double w : {0.1, 1.0, 2.5}) {
      const double b = a + w;
      EXPECT_NEAR(norm_cdf_diff(a, b), norm_cdf(b) - norm_cdf(a), 1e-15);
    }
  }
}

TEST(NormCdfDiff, RightTailNoCancellation) {
  // Phi(8.1)-Phi(8.0) computed naively loses all digits; the mirrored form
  // must match the left-tail equivalent exactly.
  const double direct = norm_cdf_diff(8.0, 8.1);
  const double mirrored = norm_cdf(-8.0) - norm_cdf(-8.1);
  EXPECT_GT(direct, 0.0);
  EXPECT_NEAR(direct / mirrored, 1.0, 1e-12);
}

TEST(NormCdfDiff, DegenerateAndInfiniteLimits) {
  EXPECT_DOUBLE_EQ(norm_cdf_diff(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(norm_cdf_diff(2.0, 1.0), 0.0);  // a > b clamps to 0
  EXPECT_DOUBLE_EQ(norm_cdf_diff(-kInf, kInf), 1.0);
  EXPECT_NEAR(norm_cdf_diff(-kInf, 0.0), 0.5, 1e-15);
  EXPECT_NEAR(norm_cdf_diff(0.0, kInf), 0.5, 1e-15);
}

// ---- batched primitives ----

std::vector<double> cdf_test_inputs() {
  std::vector<double> xs;
  for (int i = -1600; i <= 1600; ++i)  // central grid, step 0.005
    xs.push_back(static_cast<double>(i) * 0.005);
  for (int i = 80; i <= 260; ++i) {  // both tails out to the fit boundary
    xs.push_back(static_cast<double>(i) * 0.1);
    xs.push_back(-static_cast<double>(i) * 0.1);
  }
  // Endpoints, saturation, the scalar-delegated far tail, NaN, signed zero.
  for (double v : {0.0, -0.0, 26.0, -26.0, 27.5, -27.5, 37.0, -37.0, 40.0,
                   -40.0, kInf, -kInf, std::nan("")})
    xs.push_back(v);
  return xs;
}

TEST(NormBatch, CdfAgreesWithScalarAcrossRegimes) {
  const std::vector<double> xs = cdf_test_inputs();
  std::vector<double> out(xs.size());
  norm_cdf_batch(static_cast<i64>(xs.size()), xs.data(), out.data());
  for (std::size_t i = 0; i < xs.size(); ++i)
    expect_batch_agrees(out[i], norm_cdf(xs[i]), 1e-14, 0.0, "Phi", xs[i]);
}

TEST(NormBatch, CdfDiffAgreesWithScalarAcrossRegimes) {
  std::vector<double> a, b;
  const double widths[] = {1e-3, 0.1, 1.0, 7.5};
  for (int i = -250; i <= 250; ++i) {  // same-sign tails and straddles
    for (double w : widths) {
      a.push_back(static_cast<double>(i) * 0.1);
      b.push_back(a.back() + w);
    }
  }
  // Degenerate (a >= b), infinite and NaN limits.
  const double specials[] = {-kInf, -30.0, -2.0, 0.0, 2.0, 30.0, kInf,
                             std::nan("")};
  for (double x : specials)
    for (double y : specials) {
      a.push_back(x);
      b.push_back(y);
    }
  std::vector<double> out(a.size());
  norm_cdf_diff_batch(static_cast<i64>(a.size()), a.data(), b.data(),
                      out.data());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double want = norm_cdf_diff(a[i], b[i]);
    // Nearby same-tail limits cancel: the difference can be orders of
    // magnitude below the two CDF values whose rounding it inherits, so the
    // agreement floor scales with the tail mass (the scalar routine has the
    // same conditioning against the true value).
    const double min_mag = std::min(std::fabs(a[i]), std::fabs(b[i]));
    const double tail_scale =
        std::isnan(min_mag) ? 0.0 : norm_cdf(-min_mag);
    expect_batch_agrees(out[i], want, 1e-14, 2e-15 * tail_scale, "PhiDiff",
                        a[i]);
  }
}

TEST(NormBatch, QuantileAgreesWithScalarAcrossRegimes) {
  std::vector<double> ps;
  for (int i = 1; i < 2000; ++i)  // central grid
    ps.push_back(static_cast<double>(i) / 2000.0);
  for (int e = -300; e <= -4; ++e) {  // both tails down to 1e-300
    ps.push_back(std::pow(10.0, e));
    ps.push_back(1.0 - std::pow(10.0, e));
  }
  for (double v : {0.0, 1.0, -0.25, 1.25, 1e-310, 5e-324, 0.5,
                   std::nextafter(1.0, 0.0), std::nan("")})
    ps.push_back(v);
  std::vector<double> out(ps.size());
  norm_quantile_batch(static_cast<i64>(ps.size()), ps.data(), out.data());
  for (std::size_t i = 0; i < ps.size(); ++i)
    expect_batch_agrees(out[i], norm_quantile(ps[i]), 1e-14, 0.0, "Phi^-1",
                        ps[i]);
}

TEST(NormBatch, FusedCdfAndDiffMatchesSeparatePrimitivesBitwise) {
  // On arrays where every lane is vector-eligible (or the whole build is on
  // the fallback path), the fused primitive must reproduce the separate
  // primitives bit for bit — the QMC kernel relies on the fusion being a
  // pure evaluation-count optimization.
  std::vector<double> a, b;
  for (int i = -200; i <= 200; ++i) {
    a.push_back(static_cast<double>(i) * 0.09);
    b.push_back(a.back() + 0.4 + 0.01 * static_cast<double>((i + 200) % 13));
  }
  const i64 n = static_cast<i64>(a.size());
  std::vector<double> phi1(a.size()), phi2(a.size()), d1(a.size()),
      d2(a.size());
  norm_cdf_batch(n, a.data(), phi1.data());
  norm_cdf_diff_batch(n, a.data(), b.data(), d1.data());
  norm_cdf_and_diff_batch(n, a.data(), b.data(), phi2.data(), d2.data());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(phi1[i], phi2[i])) << "phi a=" << a[i];
    EXPECT_TRUE(bitwise_equal(d1[i], d2[i])) << "diff a=" << a[i];
  }
}

TEST(NormBatch, OneSidedChunksMatchTheTwoSidedPathBitwise) {
  // An 8-lane chunk whose b are all +inf evaluates one erfc instead of two
  // on the native path. Every (a, +inf) lane must match the same lane in a
  // chunk that also carries one finite-b lane (which takes the two-sided
  // path), over the whole vector range of a, signed zeros and infinities.
  std::vector<double> as;
  for (int i = -4000; i <= 4000; ++i)
    as.push_back(26.0 * static_cast<double>(i) / 4000.0);
  for (double v : {0.0, -0.0, kInf, -kInf}) as.push_back(v);
  const i64 n = static_cast<i64>(as.size());

  // All one-sided, ragged tail included.
  const std::vector<double> b1(as.size(), kInf);
  std::vector<double> phi1(as.size()), d1(as.size());
  norm_cdf_and_diff_batch(n, as.data(), b1.data(), phi1.data(), d1.data());

  // Seven of the same lanes per chunk, then one finite-b lane; padded with
  // a = 0 so every chunk is whole and carries its finite lane.
  std::vector<double> a2, b2;
  std::vector<std::size_t> at;  // position of as[k] in a2
  for (std::size_t k = 0; k < as.size(); k += 7) {
    for (std::size_t l = k; l < k + 7; ++l) {
      if (l < as.size()) at.push_back(a2.size());
      a2.push_back(l < as.size() ? as[l] : 0.0);
      b2.push_back(kInf);
    }
    a2.push_back(0.0);
    b2.push_back(1.0);
  }
  std::vector<double> phi2(a2.size()), d2(a2.size());
  norm_cdf_and_diff_batch(static_cast<i64>(a2.size()), a2.data(), b2.data(),
                          phi2.data(), d2.data());

  for (std::size_t k = 0; k < as.size(); ++k) {
    EXPECT_TRUE(bitwise_equal(phi1[k], phi2[at[k]])) << "phi a=" << as[k];
    EXPECT_TRUE(bitwise_equal(d1[k], d2[at[k]])) << "diff a=" << as[k];
  }
}

TEST(NormBatch, ResultsArePositionIndependent) {
  // A value's batch result must not depend on where it sits in the array
  // (chunking must not couple lanes): evaluate a rotated copy and compare
  // matched elements bitwise. All inputs here are vector-eligible, so every
  // chunk takes the same path in either build.
  std::vector<double> xs;
  for (int i = 0; i < 203; ++i)
    xs.push_back(-6.0 + 12.0 * static_cast<double>(i) / 202.0);
  std::vector<double> rot(xs.size());
  const std::size_t shift = 3;
  for (std::size_t i = 0; i < xs.size(); ++i)
    rot[i] = xs[(i + shift) % xs.size()];
  std::vector<double> out1(xs.size()), out2(xs.size());
  norm_cdf_batch(static_cast<i64>(xs.size()), xs.data(), out1.data());
  norm_cdf_batch(static_cast<i64>(rot.size()), rot.data(), out2.data());
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_TRUE(bitwise_equal(out1[(i + shift) % xs.size()], out2[i]))
        << "x=" << rot[i];
}

TEST(NormBatch, ReportsBuildPath) {
  // Informational: pins that the dispatch symbol exists and is callable;
  // CI runs both PARMVN_KERNEL_NATIVE=ON (native lanes) and OFF (fallback)
  // builds of this suite.
  const bool native = norm_batch_vectorized();
  SUCCEED() << "norm_batch path: " << (native ? "native" : "fallback");
}

}  // namespace
