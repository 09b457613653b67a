// Batched Phi / Phi^-1 / Phi-difference — the transcendental half of the
// sample-contiguous QMC sweep (core/qmc_kernel.cpp evaluates one panel row
// of mc samples per call).
//
// Two code paths, selected at build time:
//
//  * Native (PARMVN_KERNEL_NATIVE_TU + GCC/Clang vector extensions): 8-lane
//    vector evaluation. erfc runs as a branch-blended piecewise polynomial
//    (erf Taylor-region fit + four erfcx fits from stats/erfcx_coeffs.inc,
//    scaled by a hand-rolled vector exp whose argument comes from a
//    Dekker-split z^2 so the |z^2| * 2^-53 squaring error cannot exceed the
//    accuracy budget); Phi^-1 is Wichura's AS241 with the central/tail
//    branches evaluated on all lanes and blended, the tail r = sqrt(-log p)
//    built from a vector log. Lanes whose inputs sit outside the fitted
//    range (|x| > 26 finite, p outside [1e-300, 1)) or are NaN make their
//    8-wide chunk fall back to the scalar routines — endpoint, far-tail and
//    NaN semantics are therefore bitwise identical to the scalar kernels,
//    and the QMC hot range (clamped u in [1e-16, 1 - 1e-16], moderate
//    z-scores) never leaves the vector path. Agreement with the scalar
//    routines is <= ~1e-14 relative everywhere (tests/test_stats_normal.cpp
//    pins it; the golden 1e-12 Phi/Phi^-1 band holds on both paths).
//
//  * Fallback (everything else): plain loops over the scalar routines —
//    bitwise identical to per-element calls by construction.
//
// Determinism: chunk boundaries are a pure function of the array position,
// every lane's value is element-wise, and the only cross-lane coupling is
// the chunk-eligibility test — identical inputs at identical positions give
// bitwise identical outputs on every run, worker count and batch shape.
#include <cmath>

#include "common/simd.hpp"
#include "stats/normal.hpp"

#if defined(PARMVN_KERNEL_NATIVE_TU) && defined(PARMVN_SIMD_VECTOR_EXT)
#include "stats/erfcx_coeffs.inc"
#endif

namespace parmvn::stats {

namespace {

void cdf_scalar(i64 n, const double* x, double* out) noexcept {
  for (i64 i = 0; i < n; ++i) out[i] = norm_cdf(x[i]);
}

// Unused on the native path (its two-input chunks delegate through the
// fused scalar helper below), hence the attribute.
[[maybe_unused]] void cdf_diff_scalar(i64 n, const double* a, const double* b,
                                      double* out) noexcept {
  for (i64 i = 0; i < n; ++i) out[i] = norm_cdf_diff(a[i], b[i]);
}

void quantile_scalar(i64 n, const double* p, double* out) noexcept {
  for (i64 i = 0; i < n; ++i) out[i] = norm_quantile(p[i]);
}

void cdf_and_diff_scalar(i64 n, const double* a, const double* b, double* phi,
                         double* diff) noexcept {
  for (i64 i = 0; i < n; ++i) {
    phi[i] = norm_cdf(a[i]);
    diff[i] = norm_cdf_diff(a[i], b[i]);
  }
}

}  // namespace

#if defined(PARMVN_KERNEL_NATIVE_TU) && defined(PARMVN_SIMD_VECTOR_EXT)

namespace {

using simd::all_true;
using simd::any_true;
using simd::bits_of;
using simd::load8;
using simd::select;
using simd::splat;
using simd::store8;
using simd::v8df;
using simd::v8di;
using simd::vabs;
using simd::value_of;
using simd::vmax;
using simd::vmin;

constexpr double kInvSqrt2 = 0.7071067811865475244008443621048490;
constexpr double kInf = __builtin_inf();

// Finite |x| beyond this goes to the scalar routines: the erfcx fits stop at
// z = 18.6 (x ~ 26.3) and erfc drifts into the subnormal range soon after.
constexpr double kVecMaxArg = 26.0;

template <int N>
inline v8df poly(const double (&coef)[N], v8df x) noexcept {
  v8df p = splat(coef[N - 1]);
  for (int i = N - 2; i >= 0; --i) p = p * x + splat(coef[i]);
  return p;
}

template <int N>
inline v8df poly_mapped(const double (&coef)[N], double center, double invhalf,
                        v8df v) noexcept {
  return poly(coef, (v - splat(center)) * splat(invhalf));
}

// exp(-(shi + slo)) for shi in [0.42, 346], |slo| <= shi * 2^-26: magic-
// number round-to-nearest, hi/lo ln2 reduction with the slo correction
// folded into the reduced argument, degree-13 Taylor, exponent-bit 2^k
// scaling (k in [-500, -1]: always a normal scale factor).
inline v8df vexp_neg(v8df shi, v8df slo) noexcept {
  constexpr double kLog2e = 1.4426950408889634073599246810018921;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
  const v8df x = -shi;
  const v8df t = x * splat(kLog2e) + splat(kShift);
  const v8df kd = t - splat(kShift);
  const v8df r = (x - kd * splat(kLn2Hi)) - kd * splat(kLn2Lo) - slo;
  v8df p = splat(1.0 / 6227020800.0);  // 1/13!
  p = p * r + splat(1.0 / 479001600.0);
  p = p * r + splat(1.0 / 39916800.0);
  p = p * r + splat(1.0 / 3628800.0);
  p = p * r + splat(1.0 / 362880.0);
  p = p * r + splat(1.0 / 40320.0);
  p = p * r + splat(1.0 / 5040.0);
  p = p * r + splat(1.0 / 720.0);
  p = p * r + splat(1.0 / 120.0);
  p = p * r + splat(1.0 / 24.0);
  p = p * r + splat(1.0 / 6.0);
  p = p * r + splat(0.5);
  p = p * r + splat(1.0);
  p = p * r + splat(1.0);
  const v8di ki = __builtin_convertvector(kd, v8di);
  const v8di scale_bits = (ki + 1023) << 52;
  return p * value_of(scale_bits);
}

// log(x) for normal positive x (the quantile tails call it with
// x in [~1e-300, 0.5]): exponent/mantissa split into m in [sqrt(1/2),
// sqrt(2)), atanh series in s = (m-1)/(m+1) through s^21, hi/lo ln2
// recombination.
inline v8df vlog(v8df x) noexcept {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kSqrt2 = 1.4142135623730950488016887242096981;
  const v8di bits = bits_of(x);
  v8di e = (bits >> 52) - 1023;
  const v8di mant_bits =
      (bits & static_cast<i64>(0x000FFFFFFFFFFFFFLL)) |
      static_cast<i64>(0x3FF0000000000000LL);
  v8df m = value_of(mant_bits);  // in [1, 2)
  const v8di big = (m > splat(kSqrt2));
  m = select(big, m * splat(0.5), m);
  e = e + (big & static_cast<i64>(1));
  const v8df ed = __builtin_convertvector(e, v8df);
  const v8df s = (m - splat(1.0)) / (m + splat(1.0));
  const v8df s2 = s * s;
  v8df t = splat(1.0 / 21.0);
  t = t * s2 + splat(1.0 / 19.0);
  t = t * s2 + splat(1.0 / 17.0);
  t = t * s2 + splat(1.0 / 15.0);
  t = t * s2 + splat(1.0 / 13.0);
  t = t * s2 + splat(1.0 / 11.0);
  t = t * s2 + splat(1.0 / 9.0);
  t = t * s2 + splat(1.0 / 7.0);
  t = t * s2 + splat(1.0 / 5.0);
  t = t * s2 + splat(1.0 / 3.0);
  const v8df logm = splat(2.0) * s + splat(2.0) * s * (s2 * t);
  return (ed * splat(kLn2Hi) + logm) + ed * splat(kLn2Lo);
}

// Lanewise sqrt; the TU is compiled -fno-math-errno so this lowers to a
// vector sqrt instruction (correctly rounded either way, so the result is
// bitwise identical to std::sqrt per lane).
inline v8df vsqrt(v8df x) noexcept {
  alignas(64) double a[simd::kLanes];
  store8(a, x);
  for (double& v : a) v = __builtin_sqrt(v);
  return load8(a);
}

// erfc(z) for |z| <= kZMax (18.6), NaN-free input. Branch-blended piecewise
// evaluation; branches whose mask is empty are skipped, and every lane's
// value depends only on that lane.
v8df erfc_core(v8df z) noexcept {
  namespace et = erfc_tables;
  const v8df az = vabs(z);
  const v8di taylor = (az <= splat(et::kZTaylor));
  v8df r = splat(0.0);
  if (any_true(taylor)) {
    const v8df p =
        poly_mapped(et::kErfP0, et::kErfP0Center, et::kErfP0InvHalf, az * az);
    r = select(taylor, splat(1.0) - az * p, r);
  }
  if (!all_true(taylor)) {
    // Dekker split of az^2: shi exact (zh has 26 significant bits), slo the
    // exact remainder — vexp_neg folds it into the reduced argument.
    const v8df t = az * splat(134217729.0);  // 2^27 + 1
    const v8df zh = t - (t - az);
    const v8df zl = az - zh;
    const v8df shi = zh * zh;
    const v8df slo = splat(2.0) * zh * zl + zl * zl;
    const v8df ex = vexp_neg(shi, slo);
    const v8df u = splat(1.0) / az;
    v8df g = splat(0.0);
    const v8di in1 = ~taylor & (az <= splat(et::kZSplit1));
    const v8di in2 = (az > splat(et::kZSplit1)) & (az <= splat(et::kZSplit2));
    const v8di in3 = (az > splat(et::kZSplit2)) & (az <= splat(et::kZSplit3));
    const v8di in4 = (az > splat(et::kZSplit3));
    if (any_true(in1))
      g = select(in1,
                 poly_mapped(et::kErfcx1, et::kErfcx1Center, et::kErfcx1InvHalf,
                             az),
                 g);
    if (any_true(in2))
      g = select(in2,
                 poly_mapped(et::kErfcx2, et::kErfcx2Center, et::kErfcx2InvHalf,
                             u),
                 g);
    if (any_true(in3))
      g = select(in3,
                 poly_mapped(et::kErfcx3, et::kErfcx3Center, et::kErfcx3InvHalf,
                             u),
                 g);
    if (any_true(in4))
      g = select(in4,
                 poly_mapped(et::kErfcx4, et::kErfcx4Center, et::kErfcx4InvHalf,
                             u),
                 g);
    r = select(taylor, r, ex * g);
  }
  return select(z < splat(0.0), splat(2.0) - r, r);
}

// ---- 8-wide chunk kernels (scalar delegation for ineligible chunks) ----

void cdf_chunk(const double* x, double* out) noexcept {
  const v8df vx = load8(x);
  // Eligible: x >= -26 (catches NaN: compares false) or exactly -inf.
  const v8di ok = (vx >= splat(-kVecMaxArg)) | (vx == splat(-kInf));
  if (!all_true(ok)) {
    cdf_scalar(simd::kLanes, x, out);
    return;
  }
  const v8di lo = (vx == splat(-kInf));
  const v8di hi = (vx >= splat(kVecMaxArg));  // includes +inf
  const v8df xc = vmin(vmax(vx, splat(-kVecMaxArg)), splat(kVecMaxArg));
  const v8df e = erfc_core(-xc * splat(kInvSqrt2));
  v8df phi = splat(0.5) * e;
  // Phi saturates to exactly 1.0 well before x = 26 (erfc(z) < 2^-53 * 2
  // from z ~ 6), matching the scalar result bitwise.
  phi = select(hi, splat(1.0), phi);
  phi = select(lo, splat(0.0), phi);
  store8(out, phi);
}

// erfc(t) over selected-limit arguments: |t| <= 18.39 or +-inf.
inline v8df erfc_limits(v8df t) noexcept {
  namespace et = erfc_tables;
  const v8df tc = vmin(vmax(t, splat(-et::kZMax)), splat(et::kZMax));
  v8df e = erfc_core(tc);
  e = select(t == splat(kInf), splat(0.0), e);
  e = select(t == splat(-kInf), splat(2.0), e);
  return e;
}

// Fused Phi(a) + (Phi(b) - Phi(a)) — the one two-input chunk kernel (the
// diff-only entry point runs through it with a discarded Phi lane, so there
// is a single copy of the formula and of the ragged-tail handling).
//
// The diff uses one formula for the scalar routine's three branches: with
// Phi(x) = erfc(-x/sqrt(2))/2,
//   a >= 0:  Phi(b)-Phi(a) = (erfc(a c) - erfc(b c)) / 2
//   a <  0:  Phi(b)-Phi(a) = (erfc(-b c) - erfc(-a c)) / 2
// (the scalar b <= 0 and straddle branches compute the same expression;
// halving is exact, so the rounding matches the scalar code). Phi(a) is
// recovered from the same two erfc evaluations: for a >= 0 lanes, u = a c
// and norm_cdf's erfc(-a c) is the reflection 2 - erfc(a c) = 2 - E(u); for
// a < 0 lanes, v = -a c and erfc(-a c) = E(v) directly. Both reproduce
// norm_cdf_batch's vector-path arithmetic bitwise; note the *eligibility*
// test here also looks at b, so a chunk with an extreme b delegates wholly
// to the scalar routines where a cdf-only chunk would have stayed
// vectorized (phi then differs from norm_cdf_batch by <= ~1e-14 — see the
// contract note in normal.hpp).
void cdf_and_diff_chunk(const double* a, const double* b, double* phi,
                        double* diff) noexcept {
  const v8df va = load8(a);
  const v8df vb = load8(b);
  const v8df aa = vabs(va);
  const v8df ab = vabs(vb);
  const v8di ok = ((aa <= splat(kVecMaxArg)) | (aa == splat(kInf))) &
                  ((ab <= splat(kVecMaxArg)) | (ab == splat(kInf)));
  if (!all_true(ok)) {
    cdf_and_diff_scalar(simd::kLanes, a, b, phi, diff);
    return;
  }
  const v8di a_pos = (va >= splat(0.0));
  if (all_true(vb == splat(kInf))) {
    // One-sided chunk (b = +inf on every lane, the shape of every
    // confidence-region query): ev = erfc(+inf) = 0 on a >= 0 lanes and
    // eu = erfc(-inf) = 2 on the rest, so only E = erfc(|a| c) is live —
    // eu on a >= 0 lanes (a c == |a| c, and erfc(-0) == erfc(+0)), ev on
    // a < 0 lanes. The expressions below are the two-sided ones with the
    // constant operand substituted (eu - 0 == eu exactly), so every bit
    // matches; NormBatch.OneSidedChunksMatchTheTwoSidedPathBitwise pins it.
    const v8df e = erfc_limits(aa * splat(kInvSqrt2));
    const v8df d = splat(0.5) * select(a_pos, e, splat(2.0) - e);
    store8(diff, select(va < vb, d, splat(0.0)));
    store8(phi, splat(0.5) * select(a_pos, splat(2.0) - e, e));
    return;
  }
  const v8df u = select(a_pos, va, -vb) * splat(kInvSqrt2);
  const v8df v = select(a_pos, vb, -va) * splat(kInvSqrt2);
  const v8df eu = erfc_limits(u);
  const v8df ev = erfc_limits(v);
  const v8df d = splat(0.5) * (eu - ev);
  store8(diff, select(va < vb, d, splat(0.0)));
  store8(phi, splat(0.5) * select(a_pos, splat(2.0) - eu, ev));
}

// AS241 rational coefficients, ascending degree (transcribed from the
// scalar norm_quantile — the vector Horner evaluates in the same order).
constexpr double kQNumC[] = {
    3.3871328727963666080e+0, 1.3314166789178437745e+2,
    1.9715909503065514427e+3, 1.3731693765509461125e+4,
    4.5921953931549871457e+4, 6.7265770927008700853e+4,
    3.3430575583588128105e+4, 2.5090809287301226727e+3};
constexpr double kQDenC[] = {
    1.0,                      4.2313330701600911252e+1,
    6.8718700749205790830e+2, 5.3941960214247511077e+3,
    2.1213794301586595867e+4, 3.9307895800092710610e+4,
    2.8729085735721942674e+4, 5.2264952788528545610e+3};
constexpr double kQNumM[] = {
    1.42343711074968357734e+0, 4.63033784615654529590e+0,
    5.76949722146069140550e+0, 3.64784832476320460504e+0,
    1.27045825245236838258e+0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4};
constexpr double kQDenM[] = {
    1.0,                       2.05319162663775882187e+0,
    1.67638483018380384940e+0, 6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2,
    5.47593808499534494600e-4, 1.05075007164441684324e-9};
constexpr double kQNumF[] = {
    6.65790464350110377720e+0, 5.46378491116411436990e+0,
    1.78482653991729133580e+0, 2.96560571828504891230e-1,
    2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7};
constexpr double kQDenF[] = {
    1.0,                       5.99832206555887937690e-1,
    1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-5,
    1.42151175831644588870e-7, 2.04426310338993978564e-15};

void quantile_chunk(const double* p, double* out) noexcept {
  const v8df vp = load8(p);
  // Normal positive p strictly inside (0, 1); min(p, 1-p) stays normal, the
  // tail r stays inside AS241's fitted range, and NaN/endpoints go scalar.
  const v8di ok = (vp >= splat(1e-300)) & (vp < splat(1.0));
  if (!all_true(ok)) {
    quantile_scalar(simd::kLanes, p, out);
    return;
  }
  const v8df q = vp - splat(0.5);
  const v8di central = (vabs(q) <= splat(0.425));
  v8df vc = splat(0.0);
  if (any_true(central)) {
    const v8df r = splat(0.180625) - q * q;
    vc = q * poly(kQNumC, r) / poly(kQDenC, r);
  }
  v8df vt = splat(0.0);
  if (!all_true(central)) {
    const v8df pr = select(q < splat(0.0), vp, splat(1.0) - vp);
    const v8df r = vsqrt(-vlog(pr));
    const v8di near = (r <= splat(5.0));
    const v8df rr = select(near, r - splat(1.6), r - splat(5.0));
    const v8df num = select(near, poly(kQNumM, rr), poly(kQNumF, rr));
    const v8df den = select(near, poly(kQDenM, rr), poly(kQDenF, rr));
    const v8df val = num / den;
    vt = select(q < splat(0.0), -val, val);
  }
  store8(out, select(central, vc, vt));
}

// Drive an 8-wide chunk kernel over [0, n) with a padded final chunk; the
// pad values are fixed eligible inputs, so the tail chunk's path depends
// only on its real lanes.
template <class Chunk1, class Fill1>
void run_batch1(i64 n, const double* x, double* out, Chunk1 chunk,
                Fill1 pad) noexcept {
  i64 i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) chunk(x + i, out + i);
  if (i < n) {
    alignas(64) double xa[simd::kLanes];
    alignas(64) double oa[simd::kLanes];
    for (int l = 0; l < simd::kLanes; ++l)
      xa[l] = (i + l < n) ? x[i + l] : pad();
    chunk(xa, oa);
    for (int l = 0; i + l < n; ++l) out[i + l] = oa[l];
  }
}

// Shared driver for the two-input entry points: `phi` may be null (the
// diff-only primitive), in which case the fused chunk writes Phi into a
// discarded stack lane. Tail pads (a=0, b=+inf) are vector-eligible and
// one-sided, so the final chunk's path depends only on its real lanes.
void run_cdf_diff(i64 n, const double* a, const double* b, double* phi,
                  double* diff) noexcept {
  alignas(64) double phi_scratch[simd::kLanes];
  i64 i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes)
    cdf_and_diff_chunk(a + i, b + i, phi != nullptr ? phi + i : phi_scratch,
                       diff + i);
  if (i < n) {
    alignas(64) double aa[simd::kLanes];
    alignas(64) double ba[simd::kLanes];
    alignas(64) double pa[simd::kLanes];
    alignas(64) double da[simd::kLanes];
    for (int l = 0; l < simd::kLanes; ++l) {
      aa[l] = (i + l < n) ? a[i + l] : 0.0;
      ba[l] = (i + l < n) ? b[i + l] : kInf;
    }
    cdf_and_diff_chunk(aa, ba, pa, da);
    for (int l = 0; i + l < n; ++l) {
      diff[i + l] = da[l];
      if (phi != nullptr) phi[i + l] = pa[l];
    }
  }
}

}  // namespace

void norm_cdf_batch(i64 n, const double* x, double* out) noexcept {
  run_batch1(n, x, out, cdf_chunk, [] { return 0.0; });
}

void norm_cdf_diff_batch(i64 n, const double* a, const double* b,
                         double* out) noexcept {
  run_cdf_diff(n, a, b, nullptr, out);
}

void norm_quantile_batch(i64 n, const double* p, double* out) noexcept {
  run_batch1(n, p, out, quantile_chunk, [] { return 0.5; });
}

void norm_cdf_and_diff_batch(i64 n, const double* a, const double* b,
                             double* phi, double* diff) noexcept {
  run_cdf_diff(n, a, b, phi, diff);
}

bool norm_batch_vectorized() noexcept { return true; }

#else  // scalar fallback: loops over the scalar routines, bitwise identical

void norm_cdf_batch(i64 n, const double* x, double* out) noexcept {
  cdf_scalar(n, x, out);
}

void norm_cdf_diff_batch(i64 n, const double* a, const double* b,
                         double* out) noexcept {
  cdf_diff_scalar(n, a, b, out);
}

void norm_quantile_batch(i64 n, const double* p, double* out) noexcept {
  quantile_scalar(n, p, out);
}

void norm_cdf_and_diff_batch(i64 n, const double* a, const double* b,
                             double* phi, double* diff) noexcept {
  cdf_and_diff_scalar(n, a, b, phi, diff);
}

bool norm_batch_vectorized() noexcept { return false; }

#endif

}  // namespace parmvn::stats
