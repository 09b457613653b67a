#include "vecchia/ordering.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/contracts.hpp"

namespace parmvn::vecchia {

namespace {

constexpr i64 kExactMaxminCutoff = 4096;

struct BBox {
  double xmin = std::numeric_limits<double>::infinity();
  double ymin = std::numeric_limits<double>::infinity();
  double xmax = -std::numeric_limits<double>::infinity();
  double ymax = -std::numeric_limits<double>::infinity();
};

BBox bounding_box(std::span<const double> xy) {
  BBox b;
  const i64 n = static_cast<i64>(xy.size()) / 2;
  for (i64 i = 0; i < n; ++i) {
    const double x = xy[static_cast<std::size_t>(2 * i)];
    const double y = xy[static_cast<std::size_t>(2 * i + 1)];
    b.xmin = std::min(b.xmin, x);
    b.ymin = std::min(b.ymin, y);
    b.xmax = std::max(b.xmax, x);
    b.ymax = std::max(b.ymax, y);
  }
  return b;
}

// A non-finite coordinate has no cell and no distance order; reject it
// before any index arithmetic touches it.
void check_finite(std::span<const double> xy, const char* who) {
  for (std::size_t k = 0; k < xy.size(); ++k)
    if (!std::isfinite(xy[k]))
      throw Error(std::string("vecchia::") + who + ": site " +
                  std::to_string(k / 2) + " has a non-finite coordinate");
}

double dist2(std::span<const double> xy, i64 i, i64 j) {
  const double dx = xy[static_cast<std::size_t>(2 * i)] -
                    xy[static_cast<std::size_t>(2 * j)];
  const double dy = xy[static_cast<std::size_t>(2 * i + 1)] -
                    xy[static_cast<std::size_t>(2 * j + 1)];
  return dx * dx + dy * dy;
}

// Exact greedy maxmin: seed with the point farthest from the centroid, then
// repeatedly take the point whose min distance to the selected set is
// largest (ties toward the smaller index). O(n^2) via the standard
// min-distance array update.
std::vector<i64> maxmin_exact(std::span<const double> xy) {
  const i64 n = static_cast<i64>(xy.size()) / 2;
  double cx = 0.0;
  double cy = 0.0;
  for (i64 i = 0; i < n; ++i) {
    cx += xy[static_cast<std::size_t>(2 * i)];
    cy += xy[static_cast<std::size_t>(2 * i + 1)];
  }
  cx /= static_cast<double>(n);
  cy /= static_cast<double>(n);

  i64 first = 0;
  double best = -1.0;
  for (i64 i = 0; i < n; ++i) {
    const double dx = xy[static_cast<std::size_t>(2 * i)] - cx;
    const double dy = xy[static_cast<std::size_t>(2 * i + 1)] - cy;
    const double d = dx * dx + dy * dy;
    if (d > best) {
      best = d;
      first = i;
    }
  }

  std::vector<i64> order;
  order.reserve(static_cast<std::size_t>(n));
  order.push_back(first);
  std::vector<double> mind(static_cast<std::size_t>(n),
                           std::numeric_limits<double>::infinity());
  std::vector<char> taken(static_cast<std::size_t>(n), 0);
  taken[static_cast<std::size_t>(first)] = 1;
  for (i64 i = 0; i < n; ++i)
    if (!taken[static_cast<std::size_t>(i)])
      mind[static_cast<std::size_t>(i)] = dist2(xy, i, first);

  for (i64 k = 1; k < n; ++k) {
    i64 pick = -1;
    double far = -1.0;
    for (i64 i = 0; i < n; ++i) {
      if (taken[static_cast<std::size_t>(i)]) continue;
      if (mind[static_cast<std::size_t>(i)] > far) {
        far = mind[static_cast<std::size_t>(i)];
        pick = i;
      }
    }
    order.push_back(pick);
    taken[static_cast<std::size_t>(pick)] = 1;
    for (i64 i = 0; i < n; ++i) {
      if (taken[static_cast<std::size_t>(i)]) continue;
      mind[static_cast<std::size_t>(i)] =
          std::min(mind[static_cast<std::size_t>(i)], dist2(xy, i, pick));
    }
  }
  return order;
}

// Coarse-to-fine grid-level approximation for large n: at level L the
// domain is a 2^L x 2^L grid and each non-empty cell's representative (the
// point nearest the cell centre, ties toward the smaller index) is emitted
// unless already emitted at a coarser level. Cells are visited in row-major
// order, so the result is deterministic. Early levels are spread across the
// domain exactly like exact maxmin's early picks; within-level spacing is
// cell-width accurate, which is all the conditioning sets need.
std::vector<i64> maxmin_grid_levels(std::span<const double> xy) {
  const i64 n = static_cast<i64>(xy.size()) / 2;
  const BBox b = bounding_box(xy);
  const double wx = std::max(b.xmax - b.xmin, 1e-300);
  const double wy = std::max(b.ymax - b.ymin, 1e-300);

  std::vector<i64> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> taken(static_cast<std::size_t>(n), 0);
  i64 remaining = n;

  for (int level = 0; level < 32 && remaining > 0; ++level) {
    const i64 side = i64{1} << level;
    // cell -> representative candidate (best dist2 to centre, then index)
    std::vector<i64> rep(static_cast<std::size_t>(side * side), -1);
    std::vector<double> repd(static_cast<std::size_t>(side * side), 0.0);
    for (i64 i = 0; i < n; ++i) {
      const double x = xy[static_cast<std::size_t>(2 * i)];
      const double y = xy[static_cast<std::size_t>(2 * i + 1)];
      i64 cxi = static_cast<i64>((x - b.xmin) / wx * static_cast<double>(side));
      i64 cyi = static_cast<i64>((y - b.ymin) / wy * static_cast<double>(side));
      cxi = std::clamp(cxi, i64{0}, side - 1);
      cyi = std::clamp(cyi, i64{0}, side - 1);
      const std::size_t c = static_cast<std::size_t>(cyi * side + cxi);
      const double ccx =
          b.xmin + (static_cast<double>(cxi) + 0.5) * wx / static_cast<double>(side);
      const double ccy =
          b.ymin + (static_cast<double>(cyi) + 0.5) * wy / static_cast<double>(side);
      const double d = (x - ccx) * (x - ccx) + (y - ccy) * (y - ccy);
      if (rep[c] < 0 || d < repd[c]) {
        rep[c] = i;
        repd[c] = d;
      }
    }
    for (std::size_t c = 0; c < rep.size(); ++c) {
      const i64 i = rep[c];
      if (i >= 0 && !taken[static_cast<std::size_t>(i)]) {
        taken[static_cast<std::size_t>(i)] = 1;
        order.push_back(i);
        --remaining;
      }
    }
  }
  // Duplicate coordinates never become their own representative; append
  // them (and anything past the level cap) in index order.
  for (i64 i = 0; i < n && remaining > 0; ++i)
    if (!taken[static_cast<std::size_t>(i)]) {
      order.push_back(i);
      --remaining;
    }
  return order;
}

}  // namespace

std::vector<i64> maxmin_order(std::span<const double> xy) {
  PARMVN_EXPECTS(xy.size() % 2 == 0);
  check_finite(xy, "maxmin_order");
  const i64 n = static_cast<i64>(xy.size()) / 2;
  if (n == 0) return {};
  if (n <= kExactMaxminCutoff) return maxmin_exact(xy);
  return maxmin_grid_levels(xy);
}

PredecessorIndex::PredecessorIndex(std::span<const double> xy) : xy_(xy) {
  PARMVN_EXPECTS(xy.size() % 2 == 0);
  check_finite(xy, "nearest_predecessors");
  const i64 n = static_cast<i64>(xy.size()) / 2;
  if (n == 0) return;
  const BBox b = bounding_box(xy);
  xmin_ = b.xmin;
  ymin_ = b.ymin;
  wx_ = std::max(b.xmax - b.xmin, 1e-300);
  wy_ = std::max(b.ymax - b.ymin, 1e-300);
  // ~2 points per cell; rings stay shallow.
  side_ =
      std::max<i64>(1, static_cast<i64>(std::sqrt(static_cast<double>(n) / 2.0)));
  // Conservative per-ring distance bound: the smaller cell extent (the
  // bbox may be anisotropic), so early termination never misses a closer
  // point in an unscanned ring.
  cw_ = std::min(wx_, wy_) / static_cast<double>(side_);

  // Counting sort of the sites by cell; the ascending site loop leaves each
  // cell's list in ascending index.
  std::vector<i64> cell(static_cast<std::size_t>(n));
  cell_start_.assign(static_cast<std::size_t>(side_ * side_ + 1), 0);
  for (i64 i = 0; i < n; ++i) {
    const auto [cx, cy] = cell_of(i);
    cell[static_cast<std::size_t>(i)] = cy * side_ + cx;
    ++cell_start_[static_cast<std::size_t>(cy * side_ + cx + 1)];
  }
  for (std::size_t c = 1; c < cell_start_.size(); ++c)
    cell_start_[c] += cell_start_[c - 1];
  cell_sites_.resize(static_cast<std::size_t>(n));
  std::vector<i64> fill(cell_start_.begin(), cell_start_.end() - 1);
  for (i64 i = 0; i < n; ++i) {
    i64& next = fill[static_cast<std::size_t>(cell[static_cast<std::size_t>(i)])];
    cell_sites_[static_cast<std::size_t>(next++)] = i;
  }
}

std::pair<i64, i64> PredecessorIndex::cell_of(i64 i) const {
  i64 cxi = static_cast<i64>((xy_[static_cast<std::size_t>(2 * i)] - xmin_) /
                             wx_ * static_cast<double>(side_));
  i64 cyi = static_cast<i64>((xy_[static_cast<std::size_t>(2 * i + 1)] - ymin_) /
                             wy_ * static_cast<double>(side_));
  cxi = std::clamp(cxi, i64{0}, side_ - 1);
  cyi = std::clamp(cyi, i64{0}, side_ - 1);
  return {cxi, cyi};
}

void PredecessorIndex::nearest(i64 i, i64 m, i64* out) const {
  PARMVN_EXPECTS(m >= 1);
  // Worse = farther, ties toward the larger index; the heap top is the
  // worst kept candidate, so the sets prefer near-then-small-index.
  using Cand = std::pair<double, i64>;  // (dist2, site)
  const auto worse = [](const Cand& a, const Cand& b) {
    return a.first < b.first || (a.first == b.first && a.second < b.second);
  };
  thread_local std::vector<Cand> heap;
  heap.clear();

  const auto [ci, cj] = cell_of(i);
  for (i64 ring = 0; ring < side_; ++ring) {
    // Stop once the heap is full and even the nearest point of this ring
    // (>= (ring - 1) * cell width away) cannot beat the worst kept one.
    if (static_cast<i64>(heap.size()) == m && ring >= 2) {
      const double reach = static_cast<double>(ring - 1) * cw_;
      if (reach * reach > heap.front().first) break;
    }
    const i64 x0 = ci - ring;
    const i64 x1 = ci + ring;
    const i64 y0 = cj - ring;
    const i64 y1 = cj + ring;
    // Ring cells in fixed row-major order (top row, bottom row, then the
    // two side columns) for determinism. A cell's predecessors of i are the
    // head of its ascending site list.
    const auto scan_cell = [&](i64 cx, i64 cy) {
      if (cx < 0 || cy < 0 || cx >= side_ || cy >= side_) return;
      const std::size_t c = static_cast<std::size_t>(cy * side_ + cx);
      for (i64 e = cell_start_[c]; e < cell_start_[c + 1]; ++e) {
        const i64 j = cell_sites_[static_cast<std::size_t>(e)];
        if (j >= i) break;
        const Cand cand{dist2(xy_, i, j), j};
        if (static_cast<i64>(heap.size()) < m) {
          heap.push_back(cand);
          std::push_heap(heap.begin(), heap.end(), worse);
        } else if (worse(cand, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), worse);
          heap.back() = cand;
          std::push_heap(heap.begin(), heap.end(), worse);
        }
      }
    };
    if (ring == 0) {
      scan_cell(ci, cj);
    } else {
      for (i64 cx = x0; cx <= x1; ++cx) scan_cell(cx, y0);
      for (i64 cx = x0; cx <= x1; ++cx) scan_cell(cx, y1);
      for (i64 cy = y0 + 1; cy <= y1 - 1; ++cy) {
        scan_cell(x0, cy);
        scan_cell(x1, cy);
      }
    }
  }
  // The ring scan covers the whole grid before the heap can fill, so the
  // set holds exactly min(i, m) sites.
  PARMVN_ASSERT(static_cast<i64>(heap.size()) == std::min(i, m));
  for (std::size_t k = 0; k < heap.size(); ++k) out[k] = heap[k].second;
  std::sort(out, out + heap.size());
}

std::vector<i64> predecessor_offsets(i64 n, i64 m) {
  PARMVN_EXPECTS(n >= 0 && m >= 1);
  std::vector<i64> offsets(static_cast<std::size_t>(n + 1), 0);
  for (i64 i = 0; i < n; ++i)
    offsets[static_cast<std::size_t>(i + 1)] =
        offsets[static_cast<std::size_t>(i)] + std::min(i, m);
  return offsets;
}

ConditioningSets nearest_predecessors(std::span<const double> xy, i64 m) {
  PARMVN_EXPECTS(m >= 1);
  const PredecessorIndex index(xy);
  const i64 n = static_cast<i64>(xy.size()) / 2;
  ConditioningSets sets;
  sets.offsets = predecessor_offsets(n, m);
  sets.neighbors.resize(static_cast<std::size_t>(sets.offsets.back()));
  for (i64 i = 0; i < n; ++i)
    index.nearest(i, m,
                  sets.neighbors.data() + sets.offsets[static_cast<std::size_t>(i)]);
  return sets;
}

}  // namespace parmvn::vecchia
