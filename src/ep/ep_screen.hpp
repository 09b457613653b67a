// Expectation-propagation screening estimator for box/prefix MVN
// probabilities — the deterministic front tier of the engine's tiered
// evaluation (EngineOptions::tiered).
//
// The estimator works over a FactorBackend's generative rows: every factor
// arm expresses coordinate k of the ordered, standardised field as
//
//   x_k = sum_j c_kj * s_j + d_k * z_k,   z_k ~ N(0, 1) fresh noise,
//
// where the parent slots s_j are earlier *latent* innovations (dense/TLR:
// the row of the Cholesky factor L, d_k = L_kk) or earlier *observed*
// coordinates (Vecchia: the conditioning-set regression weights, d_k the
// conditional sd) — see FactorBackend::ep_row(). Per row there is one
// truncation factor t_k(x_k) = 1[a_k <= x_k <= b_k], approximated by an
// unnormalised Gaussian site in natural parameters (nu, tau):
// t~_k(s) = exp(nu s - tau s^2 / 2).
//
// The screen is one *sequential* pass over the rows (Gauss-Seidel
// scheduling): build the slot beliefs forward from the prior, and at each
// row moment-match the truncation (ep/truncated.hpp) against the forward
// predictive — which excludes the row's own site by construction, so it is
// the cavity with no precision subtraction needed — set the row's site to
// the matched natural parameters, and condition the slots through it
// (rank-one moment projection against the factorised belief) for the rows
// downstream.
//
// The readout rides the same pass: row k's factor is the exact truncated
// mass of its predictive — a true conditional probability of the Gaussian
// approximation — so prefix_logz[k] approximates
// log P(a_j <= x_j <= b_j for all j <= k), is monotone non-increasing by
// construction (each factor is <= 1), and is exact at row 0. Sequential
// cavities are what keep every prefix row honest: sites tuned against the
// full posterior would leak later rows' truncations into early prefix
// readouts (measured at up to 0.16 absolute on 256-dim GP fields, versus
// under 0.01 for the sequential fixed point).
//
// This pass is classic assumed-density filtering, and it *is* the
// sequential EP fixed point: a further damped EP sweep from its sites sees
// the same predictives row by row (by induction from row 0), matches the
// same sites and changes nothing, bit for bit. So one pass is the whole
// solve; there is nothing to iterate, certify or warm-start.
//
// Cost: O(nnz(rows)) per pass — n^2/2 for dense/TLR, n*m for Vecchia —
// i.e. hundreds of microseconds to low milliseconds where a QMC sweep
// spends seconds. Everything runs on the calling (host) thread from
// deterministic factor data, so the result is a pure function of
// (factor bits, limits): bitwise identical across worker counts by
// construction.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace parmvn::engine {
class FactorBackend;
}

namespace parmvn::ep {

struct EpResult {
  double logz = 0.0;  // log estimate of P(a <= X <= b)
  /// prefix_logz[k] = log estimate of the joint probability of rows 0..k;
  /// monotone non-increasing. Always length n.
  std::vector<double> prefix_logz;
  int sweeps = 0;        // passes run (always 1)
  double seconds = 0.0;  // host wall time of this screen
};

namespace detail {
class Screen;
}

/// Reusable screener bound to one factor: flattens the factor's generative
/// rows to CSR once at construction (an O(nnz) virtual-dispatch walk —
/// n^2/2 coefficients on the dense/TLR arms) and amortises it across every
/// screen() call. A batch of queries against one factor should build one
/// EpScreener; the one-shot ep_screen() below pays the flatten per call.
/// Not thread-safe: screen() reuses internal work buffers.
class EpScreener {
 public:
  explicit EpScreener(const engine::FactorBackend& f);
  ~EpScreener();
  EpScreener(EpScreener&&) noexcept;
  EpScreener& operator=(EpScreener&&) noexcept;

  /// Screen the box [a, b] (entries may be infinite) against the factor.
  [[nodiscard]] EpResult screen(std::span<const double> a,
                                std::span<const double> b);

 private:
  std::unique_ptr<detail::Screen> impl_;
};

/// One-shot convenience over EpScreener (flattens the factor per call).
[[nodiscard]] EpResult ep_screen(const engine::FactorBackend& f,
                                 std::span<const double> a,
                                 std::span<const double> b);

}  // namespace parmvn::ep
