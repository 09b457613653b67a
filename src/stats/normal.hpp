// Univariate standard normal distribution: density, CDF, log-CDF and
// quantile function — scalar kernels plus batched (array) variants.
//
// These are the innermost kernels of the SOV/QMC integrand (Algorithm 3 of
// the paper evaluates Phi and Phi^-1 once per matrix entry), so they must be
// both accurate to ~1 ulp and cheap. The *_batch variants evaluate a whole
// sample-contiguous panel row at once; under PARMVN_KERNEL_NATIVE they run
// on vector-extension lanes (branch-blended erfc polynomials, AS241
// central/tail select — see stats/normal_batch.cpp), otherwise they loop
// over the scalar routines below, bitwise identically.
#pragma once

#include "common/types.hpp"

namespace parmvn::stats {

/// Standard normal density phi(x).
double norm_pdf(double x) noexcept;

/// Standard normal CDF Phi(x) = P(Z <= x). Accurate in both tails
/// (implemented via erfc). Phi(-inf)=0, Phi(inf)=1.
double norm_cdf(double x) noexcept;

/// log Phi(x), stable for x << 0 where Phi underflows (asymptotic series in
/// the far left tail).
double norm_logcdf(double x) noexcept;

/// Quantile function Phi^-1(p) for p in [0,1]; returns -inf/+inf at the
/// endpoints. Wichura's AS241 (PPND16) rational approximations, |rel err|
/// below ~1e-15 over the full range.
double norm_quantile(double p) noexcept;

/// Difference Phi(b) - Phi(a) computed to avoid cancellation when both
/// arguments sit in the same tail (uses symmetry to evaluate in the left
/// tail where erfc is accurate).
double norm_cdf_diff(double a, double b) noexcept;

// ---- batched variants (the QMC sweep's per-row primitives) ----
//
// Semantics match the scalar functions element-wise, including endpoints
// (+-inf, p outside (0,1)) and NaN propagation. On the scalar fallback
// build the results are bitwise identical to calling the scalar routine per
// element; on the native (vectorized) build they agree to <= ~1e-14
// relative — lanes with extreme inputs (|x| > 26, subnormal-adjacent p) are
// delegated to the scalar routine, so the far-tail/endpoint values stay
// bitwise exact there too. Per-sample lanes are independent: out[i] depends
// only on the inputs at i and on i's position within the fixed 8-wide
// chunking of [0, n), never on neighbouring values' magnitudes beyond the
// shared chunk-eligibility test. `out` must not alias the inputs.

/// out[i] = Phi(x[i]).
void norm_cdf_batch(i64 n, const double* x, double* out) noexcept;

/// out[i] = Phi(b[i]) - Phi(a[i]) with the scalar routine's anti-
/// cancellation evaluation; 0 where !(a < b), NaN limits included.
void norm_cdf_diff_batch(i64 n, const double* a, const double* b,
                         double* out) noexcept;

/// out[i] = Phi^-1(p[i]).
void norm_quantile_batch(i64 n, const double* p, double* out) noexcept;

/// Fused row transform of the QMC integrand: phi[i] = Phi(a[i]) and
/// diff[i] = Phi(b[i]) - Phi(a[i]) in one pass. Phi(a) falls out of the
/// diff's own erfc evaluations through the reflection erfc(-t) = 2 - erfc(t),
/// so the row costs two erfc evaluations instead of three — one on the
/// native path for an 8-lane chunk whose b are all +inf, where the second
/// is a constant (bitwise the same results). The phi lane is
/// bitwise identical to norm_cdf_batch whenever the two take the same path
/// for the chunk — always on the fallback build, and on the native build
/// except when an extreme *b* (finite |b| > 26 or NaN) pushes the fused
/// chunk to the scalar routines while a cdf-only chunk of the same `a`
/// values would stay vectorized (then they differ by the usual <= ~1e-14).
/// Either way phi always satisfies the norm_cdf_batch accuracy contract.
void norm_cdf_and_diff_batch(i64 n, const double* a, const double* b,
                             double* phi, double* diff) noexcept;

/// True when the batch variants run on the native vector-lane path (the
/// library was built with PARMVN_KERNEL_NATIVE and a vector-extension
/// compiler); false on the scalar fallback. Tests and benches key their
/// expectations (bitwise vs 1e-14) off this.
[[nodiscard]] bool norm_batch_vectorized() noexcept;

}  // namespace parmvn::stats
