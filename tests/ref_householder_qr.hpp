// Test-local reference: unblocked Householder QR and explicit thin-Q
// formation, one reflector at a time (the level-2 kernels that the blocked
// compact-WY QR and la::apply_q replaced). Shared by test_linalg_qr_svd and
// test_tlr's recompression oracle.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace parmvn::ref_qr {

// Householder reflector for x = (alpha, rest...) of length len:
// H x = (beta, 0...). Returns tau; x is overwritten with v (v[0] = 1
// implied, stored from index 1) and x[0] = beta.
inline double make_reflector(double* x, i64 len) {
  if (len <= 1) return 0.0;
  double xnorm = 0.0;
  for (i64 i = 1; i < len; ++i) xnorm += x[i] * x[i];
  if (xnorm == 0.0) return 0.0;
  const double alpha = x[0];
  double beta = -std::copysign(std::sqrt(alpha * alpha + xnorm), alpha);
  const double tau = (beta - alpha) / beta;
  const double inv = 1.0 / (alpha - beta);
  for (i64 i = 1; i < len; ++i) x[i] *= inv;
  x[0] = beta;
  return tau;
}

// Apply H = I - tau v v^T (v packed under column j of `a`) to the columns
// right of j.
inline void apply_reflector(la::MatrixView a, i64 j, double tau) {
  const i64 m = a.rows;
  if (tau == 0.0) return;
  const double* v = a.col(j) + j;
  for (i64 c = j + 1; c < a.cols; ++c) {
    double* col = a.col(c) + j;
    double s = col[0];
    for (i64 i = 1; i < m - j; ++i) s += v[i] * col[i];
    s *= tau;
    col[0] -= s;
    for (i64 i = 1; i < m - j; ++i) col[i] -= s * v[i];
  }
}

// In-place QR in the dgeqrf layout: R on and above the diagonal, the
// reflectors below it, min(m, n) taus.
inline void householder_qr(la::MatrixView a, std::vector<double>& tau) {
  const i64 k = std::min(a.rows, a.cols);
  tau.assign(static_cast<std::size_t>(k), 0.0);
  for (i64 j = 0; j < k; ++j) {
    tau[static_cast<std::size_t>(j)] = make_reflector(a.col(j) + j, a.rows - j);
    apply_reflector(a, j, tau[static_cast<std::size_t>(j)]);
  }
}

// The explicit thin Q (m x k): the reflectors applied to [I_k; 0].
inline la::Matrix form_q_thin(la::ConstMatrixView qr,
                              const std::vector<double>& tau, i64 k) {
  const i64 m = qr.rows;
  const i64 kv =
      std::min<i64>(static_cast<i64>(tau.size()), std::min(m, qr.cols));
  la::Matrix q(m, k);
  for (i64 j = 0; j < k; ++j) q(j, j) = 1.0;
  for (i64 j = kv - 1; j >= 0; --j) {
    const double tj = tau[static_cast<std::size_t>(j)];
    if (tj == 0.0) continue;
    const double* v = qr.col(j) + j;
    for (i64 c = 0; c < k; ++c) {
      double* col = q.view().col(c) + j;
      double s = col[0];
      for (i64 i = 1; i < m - j; ++i) s += v[i] * col[i];
      s *= tj;
      col[0] -= s;
      for (i64 i = 1; i < m - j; ++i) col[i] -= s * v[i];
    }
  }
  return q;
}

}  // namespace parmvn::ref_qr
