#include "ep/ep_screen.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "engine/factor_backend.hpp"
#include "ep/truncated.hpp"

namespace parmvn::ep {

namespace {
constexpr double kVMin = 1e-12;  // slot/row variance floor
}  // namespace

namespace detail {

// The EP screen over one factor: generative rows flattened to CSR once
// (ep_row is a virtual per-row materialisation — TLR rows cost
// O(cols * rank) to form), then swept in place per query by the pass
// below. The flatten is query-independent, which is what EpScreener
// amortises across a batch.
class Screen {
 public:
  explicit Screen(const engine::FactorBackend& f)
      : n_(f.dim()), latent_(f.ep_latent_slots()) {
    offsets_.reserve(static_cast<std::size_t>(n_ + 1));
    offsets_.push_back(0);
    d_.resize(static_cast<std::size_t>(n_));
    std::vector<std::pair<i64, double>> row;
    for (i64 k = 0; k < n_; ++k) {
      d_[static_cast<std::size_t>(k)] = f.ep_row(k, row);
      for (const auto& [slot, coef] : row) {
        PARMVN_ASSERT(slot >= 0 && slot < k);
        slots_.push_back(slot);
        coefs_.push_back(coef);
      }
      offsets_.push_back(static_cast<i64>(slots_.size()));
    }
    m_.assign(static_cast<std::size_t>(n_), 0.0);
    v_.assign(static_cast<std::size_t>(n_), 1.0);
  }

  // One screen of the box [a, b]. The spans must stay valid for the
  // duration of the call only; belief buffers are reused across calls.
  [[nodiscard]] EpResult run(std::span<const double> a,
                             std::span<const double> b) {
    const WallTimer timer;
    PARMVN_EXPECTS(static_cast<i64>(a.size()) == n_ &&
                   static_cast<i64>(b.size()) == n_);
    a_ = a;
    b_ = b;
    EpResult res;
    res.prefix_logz.resize(static_cast<std::size_t>(n_));
    sweep(res.prefix_logz);
    res.sweeps = 1;
    res.logz = res.prefix_logz.empty() ? 0.0 : res.prefix_logz.back();
    res.seconds = timer.seconds();
    return res;
  }

 private:

  // The sequential pass: walk the rows in factor order, building the slot
  // beliefs from the prior as we go. At row k the forward predictive
  // (mu_f, v_f) of the row functional is computed from slots conditioned on
  // rows < k only — it excludes row k's own site by construction, so it IS
  // the cavity, with no precision subtraction (and therefore no negative-
  // cavity pathologies) needed. The truncation is moment-matched against
  // it, the site is set to the matched natural parameters, and the site
  // conditions the slots for the rows downstream (Gauss-Seidel
  // scheduling). Row k's readout factor is the exact truncated mass of the
  // predictive, so each factor is <= 1, the prefix curve is monotone
  // non-increasing by construction, and row 0 (prior predictive) is exact.
  void sweep(std::vector<double>& prefix_logz) {
    PARMVN_FAULT_POINT("ep.sweep");
    reset_slots();
    double cum = 0.0;
    for (i64 k = 0; k < n_; ++k) {
      const auto [mu_f, v_f] = forward_moments(k);
      const TruncatedMoments tm = match(k, mu_f, v_f);
      cum += tm.logz;
      prefix_logz[static_cast<std::size_t>(k)] = cum;
      const double v_t = std::max(v_f * tm.var, kVMin);
      const double mu_t = mu_f + std::sqrt(v_f) * tm.mean;
      const double tau = std::max(1.0 / v_t - 1.0 / v_f, 0.0);
      const double nu = mu_t / v_t - mu_f / v_f;
      // Row posterior under the site (the tilted moments), projected back
      // onto the parent slots.
      const double v_p = 1.0 / (1.0 / v_f + tau);
      const double mu_p = (mu_f / v_f + nu) * v_p;
      project(k, mu_f, v_f, mu_p, std::max(v_p, kVMin));
    }
  }

  void reset_slots() {
    std::fill(m_.begin(), m_.end(), 0.0);
    std::fill(v_.begin(), v_.end(), 1.0);
  }

  // Predictive moments of row k's functional from its parent slots plus the
  // innovation. In latent mode the innovation is slot k itself (coefficient
  // d_k); in observed mode it is private noise contributing d_k^2 variance.
  [[nodiscard]] std::pair<double, double> forward_moments(i64 k) const {
    const std::size_t uk = static_cast<std::size_t>(k);
    double mu = 0.0;
    double var = 0.0;
    for (i64 e = offsets_[uk]; e < offsets_[uk + 1]; ++e) {
      const std::size_t ue = static_cast<std::size_t>(e);
      const double c = coefs_[ue];
      const std::size_t j = static_cast<std::size_t>(slots_[ue]);
      mu += c * m_[j];
      var += c * c * v_[j];
    }
    const double d = d_[uk];
    if (latent_) {
      mu += d * m_[uk];
      var += d * d * v_[uk];
    } else {
      var += d * d;
    }
    return {mu, std::max(var, kVMin)};
  }

  // Truncated moments of N(mu, v) restricted to [a_k, b_k], standardised.
  [[nodiscard]] TruncatedMoments match(i64 k, double mu, double v) const {
    const std::size_t uk = static_cast<std::size_t>(k);
    const double sd = std::sqrt(v);
    return truncated_moments((a_[uk] - mu) / sd, (b_[uk] - mu) / sd);
  }

  // Rank-one moment projection of the row-functional update (mu_f, v_f) ->
  // (mu_p, v_p) onto the parent slots: under the factorised belief
  // Cov(s_j, row) = c_j v_j, so the per-slot gain is c_j v_j / v_f. In
  // observed mode slot k takes the row posterior verbatim (the row
  // functional *is* x_k).
  void project(i64 k, double mu_f, double v_f, double mu_p, double v_p) {
    const std::size_t uk = static_cast<std::size_t>(k);
    const double dmu = mu_p - mu_f;
    const double dv = v_f - v_p;
    for (i64 e = offsets_[uk]; e < offsets_[uk + 1]; ++e) {
      const std::size_t ue = static_cast<std::size_t>(e);
      const std::size_t j = static_cast<std::size_t>(slots_[ue]);
      const double g = coefs_[ue] * v_[j] / v_f;
      m_[j] += g * dmu;
      v_[j] = std::max(v_[j] - g * g * dv, kVMin);
    }
    if (latent_) {
      const double g = d_[uk] * v_[uk] / v_f;
      m_[uk] += g * dmu;
      v_[uk] = std::max(v_[uk] - g * g * dv, kVMin);
    } else {
      m_[uk] = mu_p;
      v_[uk] = std::max(v_p, kVMin);
    }
  }

  std::span<const double> a_;
  std::span<const double> b_;
  i64 n_;
  bool latent_;
  std::vector<i64> offsets_;     // CSR row pointers (n + 1)
  std::vector<i64> slots_;       // parent slot per entry
  std::vector<double> coefs_;    // parent coefficient per entry
  std::vector<double> d_;        // innovation sd per row
  std::vector<double> m_, v_;    // factorised slot beliefs
};

}  // namespace detail

EpScreener::EpScreener(const engine::FactorBackend& f)
    : impl_(std::make_unique<detail::Screen>(f)) {}
EpScreener::~EpScreener() = default;
EpScreener::EpScreener(EpScreener&&) noexcept = default;
EpScreener& EpScreener::operator=(EpScreener&&) noexcept = default;

EpResult EpScreener::screen(std::span<const double> a,
                            std::span<const double> b) {
  return impl_->run(a, b);
}

EpResult ep_screen(const engine::FactorBackend& f, std::span<const double> a,
                   std::span<const double> b) {
  EpScreener s(f);
  return s.screen(a, b);
}

}  // namespace parmvn::ep
