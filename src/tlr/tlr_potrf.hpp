// TLR Cholesky factorization (the HiCMA dpotrf): dense POTRF on diagonal
// tiles, TRSM applied to V factors, low-rank GEMM updates with
// recompression. This is the operation that gives the paper its headline
// speedups (Table II): the flop count drops from O(nb^3) to O(nb k^2)-ish
// per off-diagonal tile.
#pragma once

#include "runtime/runtime.hpp"
#include "tlr/tlr_matrix.hpp"

namespace parmvn::tlr {

/// Result of the safeguarded TLR factorization.
struct PotrfTlrInfo {
  int retries = 0;          // diagonal-boost retries that were needed
  double diag_boost = 0.0;  // total boost added to every diagonal entry
};

/// In-place TLR Cholesky: on return, diagonal tiles hold dense lower
/// Cholesky factors and off-diagonal tiles hold the low-rank blocks of L.
/// Recompression accuracy/rank-cap default to the matrix's compression
/// settings. Submits the full task DAG and waits.
///
/// SPD safeguarding: tile truncation perturbs the matrix by up to
/// ~accuracy * sigma_1 per tile, which can push a barely-positive-definite
/// covariance (short-range kernels on fine grids) below zero. Like
/// CHOLMOD-style solvers, the factorization then retries with a small
/// diagonal boost of the same order as the compression error the caller
/// already accepted; the boost is reported in the returned info (it is
/// statistically a nugget). Throws once retries are exhausted — the matrix
/// is then genuinely far from SPD.
PotrfTlrInfo potrf_tlr(rt::Runtime& rt, TlrMatrix& a, int max_retries = 4);

}  // namespace parmvn::tlr
