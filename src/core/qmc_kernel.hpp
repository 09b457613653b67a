// The per-tile QMC update of the paper's Algorithm 3, in mean form: runs m
// Monte-Carlo chain steps for a block of samples against one diagonal
// Cholesky tile.
//
// Panel layout: the mean and Y panels are stored samples-contiguous — an
// (mc x m) column-major matrix whose row index is the sample and whose
// column index is the tile-local dimension, so column i holds the mc
// samples of chain step i at unit stride.
//
// The in-tile conditional mean s_j = sum_{k<i} L(i,k) Y(j,k) is blocked
// like a left-looking factorisation: the rows are walked in groups of 32,
// one GEMM Y(:, 0:g0) L(g0:g0+32, 0:g0)^T gives every earlier group's share
// of a group's means, and each row i adds its in-group terms k = g0..i-1 by
// unit-stride SIMD axpy updates. The row then adds the external mean that
// earlier tile rows left in the mean panel (s += M(:, i)), standardises the
// row's original limits against it, a' = (a_i - s) / l_ii, and evaluates
// Phi / Phi^-1 / the CDF difference over all mc samples at once through the
// batched stats::*_batch primitives. The engine's wide multi-query panels
// use the same layout, so its mean-accumulation GEMMs (M += Y L_ir^T) and
// this integrand share one panel format.
//
// Fidelity note: the paper's listing writes
// Y = Phi^-1[R * (Phi(B') - Phi(A'))], dropping the Phi(A') offset; the
// correct Genz update implemented here is
//   y = Phi^-1( Phi(a') + w * (Phi(b') - Phi(a')) ).
#pragma once

#include <span>

#include "common/aligned.hpp"
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
/// @param a,b   m-length spans of this tile's original lower/upper limits
///              (infinite limits allowed: b = +inf gives b' = +inf)
/// @param mean  mc x m sample-contiguous tile of the external conditional
///              mean: mean(j, i) is the sum over earlier tile rows r of
///              (Y_r L_ir^T)(j, i) (zero on the first tile row)
/// @param y     mc x m output tile of conditioning values, same layout
/// @param p     mc running per-sample probability products (updated)
/// @param prefix_acc optional array of length m: prefix_acc[i] accumulates
///              the sum over this tile's samples of the running product
///              after global row row0 + i (confidence-function sweep),
///              added in ascending sample order; pass nullptr when not
///              needed.
void qmc_tile_kernel(la::ConstMatrixView l, const stats::PointSet& pts,
                     i64 row0, i64 col0, std::span<const double> a,
                     std::span<const double> b, la::ConstMatrixView mean,
                     la::MatrixView y, double* p, double* prefix_acc);

namespace detail {

/// One chain row's working set over mc samples: mu (the conditional mean,
/// filled by the caller), a'/b' (standardised limits), phi/d (batched CDF
/// outputs), u/w (quantile argument, sample coordinates). Per thread and
/// sized to the widest panel this worker has seen; contents are fully
/// rewritten every row, so reuse cannot leak state between tasks.
struct RowScratch {
  aligned_vector<double> buf;
  double* mu = nullptr;
  double* av = nullptr;
  double* bv = nullptr;
  double* phi = nullptr;
  double* d = nullptr;
  double* u = nullptr;
  double* w = nullptr;
};

/// This thread's scratch, sized for mc samples.
RowScratch& row_scratch(i64 mc);

/// The per-row tail both tile kernels share (core's and the Vecchia arm's),
/// run after the caller has put the row's in-tile conditional mean in
/// rs.mu: adds the external mean column (mu += mean), standardises
/// a' = (a - mu) / sd and b' = (b - mu) / sd, draws
/// z = Phi^-1(clamp(Phi(a') + w (Phi(b') - Phi(a')))) with w the point
/// set's row `dim` from sample `col0`, multiplies p by Phi(b') - Phi(a')
/// and adds the new running products to *prefix (when non-null) in
/// ascending sample order. rs.mu holds the full mean on return.
void chain_row(RowScratch& rs, const stats::PointSet& pts, i64 dim, i64 col0,
               i64 mc, const double* mean, double a, double b, double sd,
               double* z, double* p, double* prefix);

}  // namespace detail

}  // namespace parmvn::core
