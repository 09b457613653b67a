// The per-tile QMC update of the paper's Algorithm 3: runs m Monte-Carlo
// chain steps for a block of samples against one diagonal Cholesky tile.
//
// Panel layout (since the sample-contiguous rewrite): the A/B/Y panels are
// stored samples-contiguous — an (mc x m) column-major matrix whose row
// index is the sample and whose column index is the tile-local dimension,
// so column i holds the mc samples of chain step i at unit stride. The
// sweep walks rows i = 0..m-1 of the tile; per row it accumulates the
// triangular products s_j = sum_{k<i} L(i,k) Y(j,k) across the whole panel
// with unit-stride SIMD axpy updates, then evaluates Phi / Phi^-1 / the CDF
// difference over all mc samples at once through the batched
// stats::*_batch primitives. The engine's wide multi-query panels use the
// same layout, so the fused propagation GEMMs and this integrand share one
// panel format.
//
// Fidelity note: the paper's listing writes
// Y = Phi^-1[R * (Phi(B') - Phi(A'))], dropping the Phi(A') offset; the
// correct Genz update implemented here is
//   y = Phi^-1( Phi(a') + w * (Phi(b') - Phi(a')) ).
#pragma once

#include "linalg/matrix.hpp"
#include "stats/qmc.hpp"

namespace parmvn::core {

/// Process one (tile-row, tile-column) block.
///
/// @param l     m x m lower-triangular diagonal Cholesky tile
/// @param pts   sample set; dimension index = row0 + local column,
///              sample index = col0 + local row
/// @param row0  global row (dimension) offset of this tile
/// @param col0  global sample offset of this tile column
/// @param a,b   mc x m sample-contiguous tiles of transformed lower/upper
///              limits (already reduced by the GEMM propagation of earlier
///              tile rows): a(j, i) is sample j's limit for dimension i.
///              An empty b (data == nullptr) means b = +inf on the whole
///              tile: the kernel sets b' = +inf directly, bitwise what
///              (+inf - s) / l_ii gives for a B panel filled with +inf
///              (s is finite and l_ii > 0), so one-sided sweeps need no B
///              panel and no B propagation.
/// @param y     mc x m output tile of conditioning values, same layout
/// @param p     mc running per-sample probability products (updated)
/// @param prefix_acc optional array of length m: prefix_acc[i] accumulates
///              the sum over this tile's samples of the running product
///              after global row row0 + i (confidence-function sweep),
///              added in ascending sample order; pass nullptr when not
///              needed.
void qmc_tile_kernel(la::ConstMatrixView l, const stats::PointSet& pts,
                     i64 row0, i64 col0, la::ConstMatrixView a,
                     la::ConstMatrixView b, la::MatrixView y, double* p,
                     double* prefix_acc);

/// Flop estimate for one kernel call (for the distributed cost model).
[[nodiscard]] double qmc_kernel_flops(i64 m, i64 mc);

}  // namespace parmvn::core
