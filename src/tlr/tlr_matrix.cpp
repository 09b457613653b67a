#include "tlr/tlr_matrix.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "linalg/blas.hpp"
#include "tlr/aca.hpp"

namespace parmvn::tlr {

i64 TlrMatrix::lr_index(i64 i, i64 j) const {
  PARMVN_EXPECTS(i > j && i < nt_ && j >= 0);
  return i * (i - 1) / 2 + j;
}

la::MatrixView TlrMatrix::diag(i64 k) {
  PARMVN_EXPECTS(k >= 0 && k < nt_);
  return diag_[static_cast<std::size_t>(k)].view();
}

la::ConstMatrixView TlrMatrix::diag(i64 k) const {
  PARMVN_EXPECTS(k >= 0 && k < nt_);
  return diag_[static_cast<std::size_t>(k)].view();
}

LowRankTile& TlrMatrix::lr(i64 i, i64 j) {
  return lower_[static_cast<std::size_t>(lr_index(i, j))];
}

const LowRankTile& TlrMatrix::lr(i64 i, i64 j) const {
  return lower_[static_cast<std::size_t>(lr_index(i, j))];
}

rt::DataHandle TlrMatrix::diag_handle(i64 k) const {
  PARMVN_EXPECTS(k >= 0 && k < nt_);
  return diag_handles_[static_cast<std::size_t>(k)];
}

rt::DataHandle TlrMatrix::lr_handle(i64 i, i64 j) const {
  return lr_handles_[static_cast<std::size_t>(lr_index(i, j))];
}

TlrMatrix::TlrMatrix(const TlrMatrix& other)
    : n_(other.n_),
      nb_(other.nb_),
      nt_(other.nt_),
      tol_(other.tol_),
      max_rank_(other.max_rank_),
      diag_(other.diag_),
      lower_(other.lower_),
      diag_handles_(other.diag_handles_),
      lr_handles_(other.lr_handles_) {}  // lease_ stays empty: handles shared

TlrMatrix& TlrMatrix::operator=(const TlrMatrix& other) {
  if (this != &other) {
    n_ = other.n_;
    nb_ = other.nb_;
    nt_ = other.nt_;
    tol_ = other.tol_;
    max_rank_ = other.max_rank_;
    diag_ = other.diag_;
    lower_ = other.lower_;
    diag_handles_ = other.diag_handles_;
    lr_handles_ = other.lr_handles_;
    // lease_ untouched: if *this owns slots they stay owned (the copied
    // handle values are the same slots in the backup/restore use case).
  }
  return *this;
}

TlrMatrix TlrMatrix::compress(rt::Runtime& rt, const la::MatrixGenerator& gen,
                              i64 tile_size, double accuracy, i64 max_rank,
                              CompressionMethod method, std::string name) {
  PARMVN_EXPECTS(gen.rows() == gen.cols());
  PARMVN_EXPECTS(tile_size >= 1);
  PARMVN_EXPECTS(accuracy >= 0.0);
  PARMVN_EXPECTS(max_rank != 0);  // a cap of 0 would zero every tile

  TlrMatrix m;
  m.n_ = gen.rows();
  m.nb_ = tile_size;
  m.nt_ = (m.n_ + tile_size - 1) / tile_size;
  m.tol_ = accuracy;
  m.max_rank_ = max_rank;
  m.lease_ = rt::HandleLease(rt);
  m.diag_.resize(static_cast<std::size_t>(m.nt_));
  m.lower_.resize(static_cast<std::size_t>(m.nt_ * (m.nt_ - 1) / 2));
  for (i64 k = 0; k < m.nt_; ++k) {
    m.diag_handles_.push_back(
        m.lease_.acquire(rt, name + ".d(" + std::to_string(k) + ")"));
  }
  for (i64 i = 1; i < m.nt_; ++i)
    for (i64 j = 0; j < i; ++j)
      m.lr_handles_.push_back(m.lease_.acquire(
          rt, name + "(" + std::to_string(i) + "," + std::to_string(j) + ")"));

  // Diagonal tiles: dense generation.
  for (i64 k = 0; k < m.nt_; ++k) {
    la::Matrix& tile = m.diag_[static_cast<std::size_t>(k)];
    tile = la::Matrix(m.tile_rows(k), m.tile_rows(k));
    const i64 off = k * m.nb_;
    la::MatrixView view = tile.view();
    rt.submit("tlr_gen_diag", {{m.diag_handle(k), rt::Access::kWrite}},
              [&gen, view, off] { gen.fill(off, off, view); });
  }
  // Off-diagonal tiles: compress.
  for (i64 i = 1; i < m.nt_; ++i) {
    for (i64 j = 0; j < i; ++j) {
      LowRankTile* dst = &m.lr(i, j);
      const i64 r0 = i * m.nb_;
      const i64 c0 = j * m.nb_;
      const i64 tr = m.tile_rows(i);
      const i64 tc = m.tile_rows(j);
      rt.submit(
          "tlr_compress", {{m.lr_handle(i, j), rt::Access::kWrite}},
          [&gen, dst, r0, c0, tr, tc, accuracy, max_rank, method] {
            if (method == CompressionMethod::kAca) {
              *dst = aca_block(gen, r0, c0, tr, tc, accuracy, max_rank);
            } else {
              la::Matrix dense(tr, tc);
              gen.fill(r0, c0, dense.view());
              *dst = compress_block(dense.view(), accuracy, max_rank);
            }
          });
    }
  }
  rt.wait_all();
  return m;
}

la::Matrix TlrMatrix::to_dense() const {
  la::Matrix out(n_, n_);
  for (i64 k = 0; k < nt_; ++k) {
    la::ConstMatrixView d = diag(k);
    const i64 off = k * nb_;
    for (i64 j = 0; j < d.cols; ++j)
      for (i64 i = 0; i < d.rows; ++i) out(off + i, off + j) = d(i, j);
  }
  for (i64 i = 1; i < nt_; ++i) {
    for (i64 j = 0; j < i; ++j) {
      const la::Matrix block = lr(i, j).to_dense();
      const i64 r0 = i * nb_;
      const i64 c0 = j * nb_;
      for (i64 jj = 0; jj < block.cols(); ++jj)
        for (i64 ii = 0; ii < block.rows(); ++ii) {
          out(r0 + ii, c0 + jj) = block(ii, jj);
          out(c0 + jj, r0 + ii) = block(ii, jj);
        }
    }
  }
  return out;
}

std::vector<std::vector<i64>> TlrMatrix::rank_grid() const {
  std::vector<std::vector<i64>> grid(static_cast<std::size_t>(nt_));
  for (i64 i = 0; i < nt_; ++i) {
    grid[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(i + 1));
    for (i64 j = 0; j < i; ++j)
      grid[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          lr(i, j).rank();
    grid[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] =
        tile_rows(i);
  }
  return grid;
}

i64 TlrMatrix::max_tile_rank() const {
  i64 best = 0;
  for (const LowRankTile& t : lower_) best = std::max(best, t.rank());
  return best;
}

double TlrMatrix::mean_offdiag_rank() const {
  if (lower_.empty()) return 0.0;
  double acc = 0.0;
  for (const LowRankTile& t : lower_) acc += static_cast<double>(t.rank());
  return acc / static_cast<double>(lower_.size());
}

i64 TlrMatrix::memory_bytes() const {
  i64 bytes = 0;
  for (const la::Matrix& d : diag_) bytes += d.size() * 8;
  for (const LowRankTile& t : lower_)
    bytes += (t.u.size() + t.v.size()) * 8;
  return bytes;
}

}  // namespace parmvn::tlr
