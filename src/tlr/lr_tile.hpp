// Low-rank tile representation A ~= U V^T and its algebra: compression,
// recompression (the "SVD-recompress after addition" kernel of TLR
// Cholesky), and the error check against a dense block.
#pragma once

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace parmvn::tlr {

/// A (rows x cols) tile approximated as U V^T, U: rows x rank,
/// V: cols x rank. The all-zero tile is represented with rank 1.
struct LowRankTile {
  la::Matrix u;
  la::Matrix v;

  [[nodiscard]] i64 rows() const noexcept { return u.rows(); }
  [[nodiscard]] i64 cols() const noexcept { return v.rows(); }
  [[nodiscard]] i64 rank() const noexcept { return u.cols(); }

  [[nodiscard]] la::Matrix to_dense() const;
};

/// Compress a dense block to a low-rank tile with HiCMA's *fixed accuracy*
/// semantics: keep exactly the singular components whose singular value is
/// >= `accuracy` (an absolute threshold — the paper's "compression accuracy"
/// 1e-1 .. 1e-9 on unit-variance correlation matrices). This rule is what
/// produces Fig. 5's rank structure: rough (weak-correlation) kernels keep
/// many components near the diagonal while far tiles vanish entirely.
/// Optional rank cap (max_rank < 0 = uncapped; a binding cap degrades
/// accuracy — the wind study caps at 145; 0 is rejected).
[[nodiscard]] LowRankTile compress_block(la::ConstMatrixView a, double accuracy,
                                         i64 max_rank);

/// Recompress an existing factorisation under the same fixed-accuracy rule
/// (components with sigma < accuracy * sigma_1 are dropped, then the cap
/// applies; max_rank < 0 = uncapped, 0 is rejected). Used after additions
/// inflate the rank. Blocked QR of both factors, preconditioned Jacobi SVD
/// of the r x r core, and the reflectors applied to the kept columns only;
/// a tile with sigma_1 = 0 comes back as the rank-1 zero tile.
[[nodiscard]] LowRankTile recompress(const LowRankTile& t, double accuracy,
                                     i64 max_rank);

/// t <- t + alpha * (u2 v2^T), recompressed to the fixed accuracy. Shapes
/// must agree.
void add_lowrank_inplace(LowRankTile& t, double alpha, la::ConstMatrixView u2,
                         la::ConstMatrixView v2, double accuracy, i64 max_rank);

/// Exact Frobenius error ||A - U V^T||_F against a dense reference.
[[nodiscard]] double lr_error_fro(const LowRankTile& t, la::ConstMatrixView a);

}  // namespace parmvn::tlr
