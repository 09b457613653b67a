// Column-major dense matrix and non-owning views.
//
// The whole library works on column-major data (BLAS/LAPACK convention, and
// the layout Chameleon/HiCMA tiles use). Views carry (data, rows, cols, ld)
// so tiles of a larger matrix and whole matrices flow through the same
// kernels.
#pragma once

#include <utility>

#include "common/aligned.hpp"
#include "common/contracts.hpp"
#include "common/types.hpp"

namespace parmvn::la {

struct ConstMatrixView {
  const double* data = nullptr;
  i64 rows = 0;
  i64 cols = 0;
  i64 ld = 0;

  [[nodiscard]] double operator()(i64 i, i64 j) const noexcept {
    return data[i + j * ld];
  }

  /// View of the sub-block starting at (i0, j0) of shape (r, c).
  [[nodiscard]] ConstMatrixView sub(i64 i0, i64 j0, i64 r, i64 c) const {
    PARMVN_EXPECTS(i0 >= 0 && j0 >= 0 && r >= 0 && c >= 0);
    PARMVN_EXPECTS(i0 + r <= rows && j0 + c <= cols);
    return {data + i0 + j0 * ld, r, c, ld};
  }

  [[nodiscard]] const double* col(i64 j) const noexcept {
    return data + j * ld;
  }
};

struct MatrixView {
  double* data = nullptr;
  i64 rows = 0;
  i64 cols = 0;
  i64 ld = 0;

  [[nodiscard]] double& operator()(i64 i, i64 j) const noexcept {
    return data[i + j * ld];
  }

  [[nodiscard]] MatrixView sub(i64 i0, i64 j0, i64 r, i64 c) const {
    PARMVN_EXPECTS(i0 >= 0 && j0 >= 0 && r >= 0 && c >= 0);
    PARMVN_EXPECTS(i0 + r <= rows && j0 + c <= cols);
    return {data + i0 + j0 * ld, r, c, ld};
  }

  [[nodiscard]] double* col(i64 j) const noexcept { return data + j * ld; }

  operator ConstMatrixView() const noexcept {  // NOLINT(google-explicit-constructor)
    return {data, rows, cols, ld};
  }
};

/// Owning column-major matrix (ld == rows), zero-initialised.
class Matrix {
 public:
  Matrix() = default;

  Matrix(i64 rows, i64 cols)
      : buf_(static_cast<std::size_t>(rows * cols), 0.0),
        rows_(rows),
        cols_(cols) {
    PARMVN_EXPECTS(rows >= 0 && cols >= 0);
  }

  [[nodiscard]] i64 rows() const noexcept { return rows_; }
  [[nodiscard]] i64 cols() const noexcept { return cols_; }
  [[nodiscard]] i64 ld() const noexcept { return rows_; }
  [[nodiscard]] i64 size() const noexcept { return rows_ * cols_; }
  [[nodiscard]] bool empty() const noexcept { return buf_.empty(); }

  [[nodiscard]] double& operator()(i64 i, i64 j) noexcept {
    return buf_[static_cast<std::size_t>(i + j * rows_)];
  }
  [[nodiscard]] double operator()(i64 i, i64 j) const noexcept {
    return buf_[static_cast<std::size_t>(i + j * rows_)];
  }

  [[nodiscard]] double* data() noexcept { return buf_.data(); }
  [[nodiscard]] const double* data() const noexcept { return buf_.data(); }

  [[nodiscard]] MatrixView view() noexcept {
    return {buf_.data(), rows_, cols_, rows_};
  }
  [[nodiscard]] ConstMatrixView view() const noexcept {
    return {buf_.data(), rows_, cols_, rows_};
  }

  [[nodiscard]] MatrixView sub(i64 i0, i64 j0, i64 r, i64 c) {
    return view().sub(i0, j0, r, c);
  }
  [[nodiscard]] ConstMatrixView sub(i64 i0, i64 j0, i64 r, i64 c) const {
    return view().sub(i0, j0, r, c);
  }

  [[nodiscard]] static Matrix identity(i64 n) {
    Matrix eye(n, n);
    for (i64 i = 0; i < n; ++i) eye(i, i) = 1.0;
    return eye;
  }

 private:
  aligned_vector<double> buf_;
  i64 rows_ = 0;
  i64 cols_ = 0;
};

/// Deep copy of a view into an owning matrix.
[[nodiscard]] inline Matrix to_matrix(ConstMatrixView a) {
  Matrix out(a.rows, a.cols);
  for (i64 j = 0; j < a.cols; ++j)
    for (i64 i = 0; i < a.rows; ++i) out(i, j) = a(i, j);
  return out;
}

/// Element-wise copy between equally-shaped views.
inline void copy_into(ConstMatrixView src, MatrixView dst) {
  PARMVN_EXPECTS(src.rows == dst.rows && src.cols == dst.cols);
  for (i64 j = 0; j < src.cols; ++j)
    for (i64 i = 0; i < src.rows; ++i) dst(i, j) = src(i, j);
}

/// dst = src^T (shapes must be transposed of each other).
inline void transpose_into(ConstMatrixView src, MatrixView dst) {
  PARMVN_EXPECTS(src.rows == dst.cols && src.cols == dst.rows);
  for (i64 j = 0; j < src.cols; ++j)
    for (i64 i = 0; i < src.rows; ++i) dst(j, i) = src(i, j);
}

}  // namespace parmvn::la
