// Tile Low-Rank symmetric matrix: dense diagonal tiles, low-rank
// off-diagonal tiles (HiCMA's weak-admissibility format). Stores the lower
// triangle only.
#pragma once

#include <string>
#include <vector>

#include "linalg/generator.hpp"
#include "linalg/matrix.hpp"
#include "runtime/runtime.hpp"
#include "tlr/lr_tile.hpp"

namespace parmvn::tlr {

class TlrMatrix {
 public:
  /// Compress the symmetric matrix described by `gen` (must be square) into
  /// TLR format. `accuracy` is HiCMA's fixed-accuracy threshold: every tile
  /// keeps exactly its singular components with singular value >= accuracy
  /// (the paper's "compression accuracy" 1e-1 ... 1e-9, well-scaled for
  /// unit-variance correlation matrices). `max_rank` caps tile ranks
  /// (< 0 = uncapped; 0 throws parmvn::Error). One runtime task per tile:
  /// generate the dense tile, then rank-revealing QR (deterministic,
  /// bounded).
  static TlrMatrix compress(rt::Runtime& rt, const la::MatrixGenerator& gen,
                            i64 tile_size, double accuracy, i64 max_rank,
                            std::string name = "tlr");

  // Copies duplicate the tile data but *share* the original's data handles
  // without extending their lease (potrf_tlr's retry backup): the handle
  // slots stay owned by the matrix compress() built, and go back to the
  // runtime when that owner — not a copy — dies. Moves transfer the lease.
  TlrMatrix(const TlrMatrix& other);
  TlrMatrix& operator=(const TlrMatrix& other);
  TlrMatrix(TlrMatrix&&) noexcept = default;
  TlrMatrix& operator=(TlrMatrix&&) noexcept = default;
  ~TlrMatrix() = default;

  [[nodiscard]] i64 dim() const noexcept { return n_; }
  [[nodiscard]] i64 tile_size() const noexcept { return nb_; }
  [[nodiscard]] i64 num_tiles() const noexcept { return nt_; }
  [[nodiscard]] double tolerance() const noexcept { return tol_; }
  [[nodiscard]] i64 rank_cap() const noexcept { return max_rank_; }

  [[nodiscard]] i64 tile_rows(i64 i) const noexcept {
    const i64 r = n_ - i * nb_;
    return r < nb_ ? r : nb_;
  }

  /// Dense diagonal tile k.
  [[nodiscard]] la::MatrixView diag(i64 k);
  [[nodiscard]] la::ConstMatrixView diag(i64 k) const;
  /// Low-rank tile (i, j), i > j.
  [[nodiscard]] LowRankTile& lr(i64 i, i64 j);
  [[nodiscard]] const LowRankTile& lr(i64 i, i64 j) const;

  [[nodiscard]] rt::DataHandle diag_handle(i64 k) const;
  [[nodiscard]] rt::DataHandle lr_handle(i64 i, i64 j) const;

  /// Reconstruct the full symmetric dense matrix (tests/small problems).
  [[nodiscard]] la::Matrix to_dense() const;

  /// Rank of every tile: grid[i][j] for j < i; grid[i][i] = tile_rows(i)
  /// (dense marker, as in the paper's Fig. 5 heatmaps).
  [[nodiscard]] std::vector<std::vector<i64>> rank_grid() const;

  [[nodiscard]] i64 max_tile_rank() const;
  [[nodiscard]] double mean_offdiag_rank() const;

  /// Bytes held in factors (dense diag + U/V), and the dense-storage
  /// equivalent, for compression-ratio reporting.
  [[nodiscard]] i64 memory_bytes() const;
  [[nodiscard]] i64 dense_bytes() const noexcept { return n_ * n_ * 8; }

 private:
  TlrMatrix() = default;

  [[nodiscard]] i64 lr_index(i64 i, i64 j) const;

  i64 n_ = 0;
  i64 nb_ = 0;
  i64 nt_ = 0;
  double tol_ = 0.0;
  i64 max_rank_ = -1;
  std::vector<la::Matrix> diag_;
  std::vector<LowRankTile> lower_;
  std::vector<rt::DataHandle> diag_handles_;
  std::vector<rt::DataHandle> lr_handles_;
  rt::HandleLease lease_;  // returns the handles on destruction
};

}  // namespace parmvn::tlr
