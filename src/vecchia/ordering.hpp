// Orderings and conditioning sets for the Vecchia approximation.
//
// A Vecchia factor is defined by (1) an integration order over the sites
// and (2) per-site conditioning sets drawn from each site's *predecessors*
// in that order. This header provides both building blocks:
//
//  * maxmin_order(): the classical maximum-minimum-distance ordering
//    (Guinness's recommendation for Vecchia accuracy): each picked point
//    maximises its distance to everything picked before it, so early points
//    are spread coarsely across the domain and every site conditions on a
//    multi-scale neighbourhood. Exact greedy O(n^2) for small n; a
//    deterministic coarse-to-fine grid-level approximation above that.
//    Confidence-region sweeps do NOT use this — their order is dictated by
//    descending marginal probability (the prefix estimand) — but plain PMVN
//    queries and benchmarks do.
//
//  * nearest_predecessors(): for each site i (in whatever order the
//    coordinates arrive, i.e. after any permutation has been applied), the
//    up-to-m nearest earlier sites, found through a uniform grid index in
//    O(n * m) expected time. Deterministic: candidate cells are scanned in
//    a fixed ring order and ties in distance break toward the smaller site
//    index, so the sets are a pure function of the input.
//    PredecessorIndex is the same search one site at a time, so disjoint
//    site ranges can be filled concurrently (VecchiaFactor::build does).
//
// Every coordinate must be finite: both entry points throw parmvn::Error
// naming the first site that is not.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace parmvn::vecchia {

/// Coordinates are flat (x0, y0, x1, y1, ...) as produced by
/// la::MatrixGenerator::coords_xy().
[[nodiscard]] std::vector<i64> maxmin_order(std::span<const double> xy);

/// CSR conditioning sets: neighbors[offsets[i] .. offsets[i+1]) are the
/// conditioning sites of site i, each < i, sorted ascending.
struct ConditioningSets {
  std::vector<i64> offsets;   // size n + 1
  std::vector<i64> neighbors;

  [[nodiscard]] i64 count(i64 i) const noexcept {
    return offsets[static_cast<std::size_t>(i + 1)] -
           offsets[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::span<const i64> of(i64 i) const noexcept {
    return {neighbors.data() + offsets[static_cast<std::size_t>(i)],
            static_cast<std::size_t>(count(i))};
  }
};

/// Grid index over every site, built once in O(n). Each cell lists its
/// sites in ascending index and a query for site i stops at the first entry
/// >= i, so it sees exactly the predecessors of i. Queries are const and
/// independent. Keeps a view of `xy`, which must outlive the index.
class PredecessorIndex {
 public:
  explicit PredecessorIndex(std::span<const double> xy);

  /// Write the min(i, m) nearest predecessors of site i to out[0..),
  /// ascending.
  void nearest(i64 i, i64 m, i64* out) const;

 private:
  [[nodiscard]] std::pair<i64, i64> cell_of(i64 i) const;

  std::span<const double> xy_;
  double xmin_ = 0.0, ymin_ = 0.0, wx_ = 1.0, wy_ = 1.0, cw_ = 1.0;
  i64 side_ = 1;
  std::vector<i64> cell_start_;  // CSR over cells, side_ * side_ + 1
  std::vector<i64> cell_sites_;  // sites by cell, ascending within a cell
};

/// CSR row pointers of the nearest-predecessor sets: site i holds exactly
/// min(i, m) sites, so offsets[i] = sum_{k<i} min(k, m).
[[nodiscard]] std::vector<i64> predecessor_offsets(i64 n, i64 m);

/// Up-to-m nearest predecessors per site under Euclidean distance.
[[nodiscard]] ConditioningSets nearest_predecessors(std::span<const double> xy,
                                                    i64 m);

}  // namespace parmvn::vecchia
