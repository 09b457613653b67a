// The per-tile QMC chain step for the Vecchia factor — the sparse
// counterpart of core::qmc_tile_kernel.
//
// Same sample-contiguous panel layout (rows = samples, columns = tile-local
// dimensions), the same mean form and the same per-row tail
// (core::detail::chain_row); the arms differ in how the in-tile mean is
// formed and in what the Y panel carries, because a Vecchia factor
// propagates *realized field values*, not standardised innovations:
//
//   mu_j   = sum_{k in c(i), k in tile} w_ik y(j,k) + mean(j, i)   (gather)
//   a'_j   = (a_i - mu_j) / d_i,  b'_j = (b_i - mu_j) / d_i
//   u_j    = clamp(Phi(a') + w * (Phi(b') - Phi(a')), eps)
//   y(j,i) = mu_j + d_i * Phi^-1(u_j)
//
// The in-tile weights are the suffix of site i's ascending CSR set that
// lies in the tile, at most m FMAs per entry. `mean` carries the
// accumulated external conditional mean (zero plus every cross-tile
// weight, VecchiaBackend::accumulate_external); `a`/`b` are the
// per-dimension query limits in the factor's ordered, standardised space.
// The per-sample arithmetic depends only on the dimension index,
// preserving the batched==single and worker-count determinism contracts.
#pragma once

#include <span>

#include "linalg/matrix.hpp"
#include "stats/qmc.hpp"
#include "vecchia/vecchia_factor.hpp"

namespace parmvn::vecchia {

/// Process one (tile-row, tile-column) block.
///
/// @param f     the factor; tile row r spans rows [r * tile, + tile_rows(r))
/// @param r     tile row (the dimension index of local column i is
///              r * tile + i)
/// @param pts   sample set; sample index = col0 + local row
/// @param col0  global sample offset of this tile column
/// @param a,b   m-length spans of the lower/upper limits of this tile's
///              leading m rows, m <= f.tile_rows(r) (the engine passes
///              fewer on a query's partial last tile row)
/// @param mean  mc x m external conditional mean tile (read-only)
/// @param y     mc x m output tile of realized values, sample-contiguous
/// @param p     mc running per-sample probability products (updated)
/// @param prefix_acc optional array of length m accumulating the per-row
///              running-product sums (see core::qmc_tile_kernel)
void vecchia_tile_kernel(const VecchiaFactor& f, i64 r,
                         const stats::PointSet& pts, i64 col0,
                         std::span<const double> a,
                         std::span<const double> b, la::ConstMatrixView mean,
                         la::MatrixView y, double* p, double* prefix_acc);

}  // namespace parmvn::vecchia
