// One-sided Jacobi singular value decomposition.
//
// Used on the cores that appear in low-rank recompression (r x r with r
// the concatenated rank of a tile and its update: on the n = 4096
// confidence-region detection r averages ~108 and reaches ~235) and as a
// high-accuracy oracle in tests. The Jacobi sweeps run on R^T from a
// column-pivoted QR of the input (Drmac-Veselic preconditioning), which
// takes a few sweeps off (13 -> 10 on bench_kernels' 224-column
// BM_recompress core) and drops the numerically-zero part of the spectrum
// before any rotation; one-sided Jacobi stays essentially backward-stable
// and simple to verify.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace parmvn::la {

struct SvdResult {
  Matrix u;                    // m x k, orthonormal columns
  std::vector<double> sigma;   // k singular values, descending
  Matrix v;                    // n x k, orthonormal columns
};

/// Thin SVD A ~= U diag(sigma) V^T of the numerical rank: the k <= min(m, n)
/// components above the rounding-level cut of the pivoted-QR preconditioner
/// (largest remaining column norm <= min(m, n) eps |A|'s largest column
/// norm); the dropped part has norm ~min(m, n)^1.5 eps sigma_1. The zero
/// matrix gives one zero component. For m >= n, V comes straight from the
/// Jacobi sweeps, orthonormal to working precision, and U = A V
/// diag(sigma)^-1, whose column j is accurate to eps sigma_1 / sigma_j —
/// so U diag(sigma) is always accurate to eps sigma_1. For m < n the roles
/// of U and V swap. Throws parmvn::Error on a NaN or inf entry.
[[nodiscard]] SvdResult svd_jacobi(ConstMatrixView a);

/// Smallest rank r such that the discarded tail satisfies
/// sqrt(sum_{i>=r} sigma_i^2) <= tol_fro (absolute Frobenius tolerance).
/// Always returns at least 1.
[[nodiscard]] i64 truncation_rank(const std::vector<double>& sigma,
                                  double tol_fro);

/// Number of singular values >= threshold (HiCMA's fixed-accuracy rule:
/// everything below the threshold is noise). Always returns at least 1.
[[nodiscard]] i64 truncation_rank_sv(const std::vector<double>& sigma,
                                     double threshold);

}  // namespace parmvn::la
