#include "core/mvn_mc.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "linalg/microkernel.hpp"
#include "stats/rng.hpp"

namespace parmvn::core {

// Sample-contiguous panel layout (the QMC sweep's layout, applied to the
// naive baseline): Z is (batch x n) with row = sample, so dimension i's
// values for the whole batch are one unit-stride column
//   x(:, i) = sum_{k <= i} L(i, k) * Z(:, k),
// a strided-SIMD row sweep over the column-major factor — instead of the
// per-sample trmm of the transposed layout. Membership then updates a
// unit-stride alive mask per dimension, and a batch whose samples are all
// dead exits the dimension loop early (common for tight boxes, where most
// samples fail in the first few dimensions).
MvnMcResult mvn_probability_mc(la::ConstMatrixView l, std::span<const double> a,
                               std::span<const double> b, i64 num_samples,
                               u64 seed) {
  const WallTimer timer;
  const i64 n = l.rows;
  PARMVN_EXPECTS(l.cols == n);
  PARMVN_EXPECTS(static_cast<i64>(a.size()) == n &&
                 static_cast<i64>(b.size()) == n);
  PARMVN_EXPECTS(num_samples >= 1);
  expect_no_nan_limits("mvn_probability_mc", a, b);

  constexpr i64 kBatch = 64;
  la::Matrix z(kBatch, n);
  std::vector<double> xv(static_cast<std::size_t>(kBatch));
  std::vector<unsigned char> alive(static_cast<std::size_t>(kBatch));
  stats::Xoshiro256pp g(seed);
  i64 inside = 0;
  for (i64 s0 = 0; s0 < num_samples; s0 += kBatch) {
    const i64 bs = std::min(kBatch, num_samples - s0);
    // Per-sample draw order (j outer) keeps the estimate a function of the
    // seed alone, independent of the compute layout.
    for (i64 j = 0; j < bs; ++j)
      for (i64 i = 0; i < n; ++i) z(j, i) = g.next_normal();
    std::fill(alive.begin(), alive.begin() + bs, 1);
    for (i64 i = 0; i < n; ++i) {
      std::fill(xv.begin(), xv.begin() + bs, 0.0);
      la::detail::gemv_notrans_strided_simd(1.0, z.sub(0, 0, bs, i + 1),
                                            l.data + i, l.ld, xv.data());
      const double ai = a[static_cast<std::size_t>(i)];
      const double bi = b[static_cast<std::size_t>(i)];
      i64 live = 0;
      for (i64 j = 0; j < bs; ++j) {
        alive[static_cast<std::size_t>(j)] &=
            static_cast<unsigned char>(xv[static_cast<std::size_t>(j)] >= ai &&
                                       xv[static_cast<std::size_t>(j)] <= bi);
        live += alive[static_cast<std::size_t>(j)];
      }
      if (live == 0) break;
    }
    for (i64 j = 0; j < bs; ++j) inside += alive[static_cast<std::size_t>(j)];
  }
  MvnMcResult out;
  out.prob = static_cast<double>(inside) / static_cast<double>(num_samples);
  out.error3sigma =
      3.0 * std::sqrt(std::max(out.prob * (1.0 - out.prob), 1e-12) /
                      static_cast<double>(num_samples));
  out.seconds = timer.seconds();
  return out;
}

}  // namespace parmvn::core
