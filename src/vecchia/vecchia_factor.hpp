// Sparse inverse-Cholesky (Vecchia) factor — the third factor arm, for
// fields whose dense/TLR Cholesky does not fit time or memory budgets.
//
// The Vecchia approximation replaces the joint density with a product of
// low-dimensional conditionals: in the integration order, site i conditions
// only on its m nearest predecessors c(i), giving
//
//   x_i = sum_{k in c(i)} w_ik x_k + d_i z_i,   z_i ~ N(0, 1)
//
// with the regression weights w_i = K_cc^{-1} k_ci and conditional sd
// d_i = sqrt(k_ii - k_ci^T K_cc^{-1} k_ci) from one (|c| <= m)-dimensional
// Cholesky solve per site: O(n m^3) build work and O(n m) memory, versus
// O(n^3) / O(n^2) for a dense factor. Because conditioning sets contain
// only predecessors, the running SOV product after row i is exactly the
// Vecchia-approximate joint probability of the first i+1 sites — the
// prefix estimand the confidence-region sweep needs — so the arm slots
// into the same engine sweep.
//
// The factor is its CSR: conditioning sets, weights aligned with them and
// the conditional sd per site, O(n m) memory. Tiles exist only as geometry
// matching the engine's panel sweep: a site's set, sorted ascending, splits
// into a cross-tile prefix (applied by VecchiaBackend::accumulate_external
// as unit-stride axpys) and an in-tile suffix (gathered by the chain step,
// vecchia_kernel.hpp).
//
// The build runs on the runtime: one host-side O(n) grid index, then
// chunked `vecchia_fit` tasks that each search and fit their own sites
// into disjoint CSR slices (set sizes, and so the offsets, are known up
// front).
#pragma once

#include <span>
#include <vector>

#include "linalg/generator.hpp"
#include "runtime/runtime.hpp"
#include "vecchia/ordering.hpp"

namespace parmvn::vecchia {

class VecchiaFactor {
 public:
  /// Build over `gen` (an SPD covariance/correlation generator, already in
  /// integration order) with site coordinates `xy` (flat x,y pairs, also in
  /// integration order — la::MatrixGenerator::coords_xy()). Neighbour
  /// searches and per-site solves run as parallel runtime tasks; blocks
  /// until done.
  [[nodiscard]] static VecchiaFactor build(rt::Runtime& rt,
                                           const la::MatrixGenerator& gen,
                                           std::span<const double> xy,
                                           i64 tile, i64 m);

  [[nodiscard]] i64 dim() const noexcept { return n_; }
  [[nodiscard]] i64 tile_size() const noexcept { return tile_; }
  [[nodiscard]] i64 row_tiles() const noexcept { return mt_; }
  [[nodiscard]] i64 tile_rows(i64 r) const noexcept {
    return r == mt_ - 1 ? n_ - r * tile_ : tile_;
  }
  [[nodiscard]] i64 cond_m() const noexcept { return m_; }

  /// Conditioning sets (ascending per site), the weights aligned with them,
  /// and the conditional sd per site.
  [[nodiscard]] const ConditioningSets& sets() const noexcept { return sets_; }
  [[nodiscard]] std::span<const double> weights() const noexcept { return w_; }
  [[nodiscard]] std::span<const double> cond_sd() const noexcept { return d_; }

  /// Wall-clock seconds spent building (conditioning sets + solves).
  [[nodiscard]] double build_seconds() const noexcept {
    return build_seconds_;
  }

 private:
  VecchiaFactor() = default;

  i64 n_ = 0;
  i64 tile_ = 0;
  i64 mt_ = 0;
  i64 m_ = 0;
  ConditioningSets sets_;
  std::vector<double> w_;  // CSR weights aligned with sets_.neighbors
  std::vector<double> d_;  // conditional sd per site
  double build_seconds_ = 0.0;
};

}  // namespace parmvn::vecchia
