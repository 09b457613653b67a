#include "linalg/microkernel.hpp"

#include <algorithm>

#include "common/aligned.hpp"
#include "common/simd.hpp"

namespace parmvn::la::detail {

namespace {

// Register microtile: a kMR x kNR block of C is held in registers across the
// k loop; per k step the kernel loads kMR/8 A vectors and broadcasts kNR B
// values. The shape is chosen per target ISA here, inside the one TU built
// with the native flags, so no other TU ever sees a different value:
//  * AVX-512 (32 zmm): 32 x 6 = 24 accumulator vectors, 4 A loads and 6
//    broadcasts per k step. Of the 24-accumulator shapes it ran fastest on
//    bench_kernels' BM_gemm_update and BM_gemm_lowrank (16 x 12 and 24 x 8
//    tried), and its 6 columns tile the TLR ranks' n = 30 with no padding.
//  * Everything else: 16 x 4 = 8 accumulator vectors (16 ymm on AVX2); 24
//    v8df accumulators would spill on 16-register ISAs.
// The shape never changes a result bit: every C entry is summed from zero in
// ascending k within each kKC block, then C += alpha * acc, whatever the tile.
#if defined(__AVX512F__)
constexpr i64 kMR = 32;
constexpr i64 kNR = 6;
#else
constexpr i64 kMR = 16;
constexpr i64 kNR = 4;
#endif

// Cache blocking around the register tile: the largest multiples of the
// tile within 128 rows and 1024 columns. apack is kMC x kKC (192 KiB,
// L2-resident), bpack is kKC x kNC (~1.5 MiB, streamed from L3); the bpack
// row-panel (kKC x kNR, 9 KiB at kNR = 6) stays L1-resident across the ir
// loop while the apack column-panels stream from L2.
constexpr i64 kMC = kMR * (128 / kMR);
constexpr i64 kNC = kNR * (1024 / kNR);

static_assert(kMC % kMR == 0, "A block must tile into full micro-panels");
static_assert(kNC % kNR == 0, "B block must tile into full micro-panels");
static_assert(kMR % 8 == 0, "A micro-panel must be whole 8-lane vectors");

// Per-thread packing scratch. Worker threads of the task runtime each get
// their own copy, so concurrent tile GEMMs never share panels; contents are
// fully (re)written on every pack, so reuse cannot leak state between calls.
struct PackScratch {
  aligned_vector<double> a;  // kMC x kKC, column-panels of kMR rows
  aligned_vector<double> b;  // kKC x kNC, row-panels of kNR columns
};

PackScratch& scratch() {
  thread_local PackScratch s;
  if (s.a.empty()) {
    s.a.resize(static_cast<std::size_t>(kMC * kKC));
    s.b.resize(static_cast<std::size_t>(kKC * kNC));
  }
  return s;
}

// Pack op(A)(i0:i0+mc, p0:p0+kc) into column-panels of kMR rows:
// out[(ir/kMR) * kMR*kc + l*kMR + i] = op(A)(ir + i, l). The ragged bottom
// panel is zero-padded to kMR rows so the microkernel always runs full
// width; the padded rows are masked out at write-back.
void pack_a(Trans trans, ConstMatrixView a, i64 i0, i64 p0, i64 mc, i64 kc,
            double* __restrict out) {
  for (i64 ir = 0; ir < mc; ir += kMR) {
    const i64 mr = std::min(kMR, mc - ir);
    if (trans == Trans::kNo) {
      for (i64 l = 0; l < kc; ++l) {
        const double* __restrict src = a.col(p0 + l) + i0 + ir;
        for (i64 i = 0; i < mr; ++i) out[i] = src[i];
        for (i64 i = mr; i < kMR; ++i) out[i] = 0.0;
        out += kMR;
      }
    } else {
      // op(A)(i, l) = a(p0 + l, i0 + i): walk columns of a (contiguous in l)
      // and scatter into the panel.
      for (i64 i = 0; i < mr; ++i) {
        const double* __restrict src = a.col(i0 + ir + i) + p0;
        for (i64 l = 0; l < kc; ++l) out[l * kMR + i] = src[l];
      }
      for (i64 i = mr; i < kMR; ++i)
        for (i64 l = 0; l < kc; ++l) out[l * kMR + i] = 0.0;
      out += kMR * kc;
    }
  }
}

// Pack op(B)(p0:p0+kc, j0:j0+nc) into row-panels of kNR columns:
// out[(jr/kNR) * kNR*kc + l*kNR + j] = op(B)(l, jr + j), ragged right panel
// zero-padded to kNR columns.
void pack_b(Trans trans, ConstMatrixView b, i64 p0, i64 j0, i64 kc, i64 nc,
            double* __restrict out) {
  for (i64 jr = 0; jr < nc; jr += kNR) {
    const i64 nr = std::min(kNR, nc - jr);
    if (trans == Trans::kNo) {
      // op(B)(l, j) = b(p0 + l, j0 + j): columns of b are contiguous in l.
      for (i64 j = 0; j < nr; ++j) {
        const double* __restrict src = b.col(j0 + jr + j) + p0;
        for (i64 l = 0; l < kc; ++l) out[l * kNR + j] = src[l];
      }
      for (i64 j = nr; j < kNR; ++j)
        for (i64 l = 0; l < kc; ++l) out[l * kNR + j] = 0.0;
      out += kNR * kc;
    } else {
      // op(B)(l, j) = b(j0 + j, p0 + l): column p0+l of b is contiguous in j.
      for (i64 l = 0; l < kc; ++l) {
        const double* __restrict src = b.col(p0 + l) + j0 + jr;
        for (i64 j = 0; j < nr; ++j) out[j] = src[j];
        for (i64 j = nr; j < kNR; ++j) out[j] = 0.0;
        out += kNR;
      }
    }
  }
}

// The microkernel: acc(kMR x kNR) = sum_l apanel(:, l) * bpanel(l, :), then
// C(0:mr, 0:nr) += alpha * acc.
//
// The accumulator tile must live in registers across the whole k loop — one
// spilled accumulator turns every FMA into load+op+store and costs an order
// of magnitude. On GCC/Clang the accumulators are vector-extension values
// (lowered to the best ISA the TU is compiled for, AVX-512 down to SSE2) in
// a fixed-size array whose loops are fully unrolled, so each element is
// scalar-replaced into its own register; elsewhere a scalar fallback keeps
// the identical reduction order.
#if defined(PARMVN_SIMD_VECTOR_EXT)

// Lane type and helpers shared with the other native-flag TUs (the batched
// stats primitives); apack panels start and stride at multiples of kMR
// doubles, whole 64-byte lines, so load8 is a single aligned vector load.
using simd::load8;
using simd::splat;
using simd::store8;
using simd::v8df;

constexpr i64 kMV = kMR / 8;  // A vectors per k step

void micro_kernel(i64 kc, const double* __restrict ap,
                  const double* __restrict bp, double alpha,
                  double* __restrict c, i64 ldc, i64 mr, i64 nr) {
  v8df acc[kNR][kMV];  // acc[j][v] = rows 8v:8v+8 of column j
#pragma GCC unroll 32
  for (i64 j = 0; j < kNR; ++j)
#pragma GCC unroll 8
    for (i64 v = 0; v < kMV; ++v) acc[j][v] = splat(0.0);
  for (i64 l = 0; l < kc; ++l) {
    v8df a[kMV];
#pragma GCC unroll 8
    for (i64 v = 0; v < kMV; ++v) a[v] = load8(ap + l * kMR + 8 * v);
    const double* __restrict bl = bp + l * kNR;
#pragma GCC unroll 32
    for (i64 j = 0; j < kNR; ++j) {
      const v8df bj = splat(bl[j]);
#pragma GCC unroll 8
      for (i64 v = 0; v < kMV; ++v) acc[j][v] += a[v] * bj;
    }
  }
  if (mr == kMR && nr == kNR) {
    // Full tile: C goes through vector registers, one lane per entry, with
    // the same per-entry expression c + alpha * acc as the ragged path.
    const v8df va = splat(alpha);
#pragma GCC unroll 32
    for (i64 j = 0; j < kNR; ++j)
#pragma GCC unroll 8
      for (i64 v = 0; v < kMV; ++v) {
        double* cj = c + j * ldc + 8 * v;
        store8(cj, load8(cj) + va * acc[j][v]);
      }
    return;
  }
  alignas(64) double tile[kMR * kNR];
#pragma GCC unroll 32
  for (i64 j = 0; j < kNR; ++j)
#pragma GCC unroll 8
    for (i64 v = 0; v < kMV; ++v) store8(tile + j * kMR + 8 * v, acc[j][v]);
  for (i64 j = 0; j < nr; ++j) {
    double* __restrict cj = c + j * ldc;
    for (i64 i = 0; i < mr; ++i) cj[i] += alpha * tile[j * kMR + i];
  }
}

#else  // scalar fallback, same reduction order

void micro_kernel(i64 kc, const double* __restrict ap,
                  const double* __restrict bp, double alpha,
                  double* __restrict c, i64 ldc, i64 mr, i64 nr) {
  double acc[kMR * kNR];
  for (i64 x = 0; x < kMR * kNR; ++x) acc[x] = 0.0;
  for (i64 l = 0; l < kc; ++l) {
    const double* __restrict al = ap + l * kMR;
    const double* __restrict bl = bp + l * kNR;
    for (i64 j = 0; j < kNR; ++j) {
      const double bv = bl[j];
      for (i64 i = 0; i < kMR; ++i) acc[j * kMR + i] += al[i] * bv;
    }
  }
  for (i64 j = 0; j < nr; ++j) {
    double* __restrict cj = c + j * ldc;
    for (i64 i = 0; i < mr; ++i) cj[i] += alpha * acc[j * kMR + i];
  }
}

#endif

}  // namespace

void gemm_packed(double alpha, Trans trans_a, ConstMatrixView a,
                 Trans trans_b, ConstMatrixView b, MatrixView c) {
  const i64 m = c.rows;
  const i64 n = c.cols;
  const i64 k = (trans_a == Trans::kNo) ? a.cols : a.rows;
  PackScratch& s = scratch();
  double* const apack = s.a.data();
  double* const bpack = s.b.data();

  for (i64 jc = 0; jc < n; jc += kNC) {
    const i64 nc = std::min(kNC, n - jc);
    for (i64 pc = 0; pc < k; pc += kKC) {
      const i64 kc = std::min(kKC, k - pc);
      pack_b(trans_b, b, pc, jc, kc, nc, bpack);
      for (i64 ic = 0; ic < m; ic += kMC) {
        const i64 mc = std::min(kMC, m - ic);
        pack_a(trans_a, a, ic, pc, mc, kc, apack);
        for (i64 jr = 0; jr < nc; jr += kNR) {
          const i64 nr = std::min(kNR, nc - jr);
          const double* bp = bpack + (jr / kNR) * (kNR * kc);
          for (i64 ir = 0; ir < mc; ir += kMR) {
            const i64 mr = std::min(kMR, mc - ir);
            const double* ap = apack + (ir / kMR) * (kMR * kc);
            micro_kernel(kc, ap, bp, alpha, &c(ic + ir, jc + jr), c.ld, mr, nr);
          }
        }
      }
    }
  }
}

#if defined(PARMVN_SIMD_VECTOR_EXT)

namespace {

// Fixed-order lane reduction: pairwise over lanes.
double hsum(v8df v) noexcept {
  alignas(64) double lanes[8];
  store8(lanes, v);
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

}  // namespace

double dot_simd(i64 n, const double* x, const double* y) noexcept {
  v8df acc0 = splat(0.0), acc1 = splat(0.0);
  v8df acc2 = splat(0.0), acc3 = splat(0.0);
  i64 i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 += load8(x + i) * load8(y + i);
    acc1 += load8(x + i + 8) * load8(y + i + 8);
    acc2 += load8(x + i + 16) * load8(y + i + 16);
    acc3 += load8(x + i + 24) * load8(y + i + 24);
  }
  for (; i + 8 <= n; i += 8) acc0 += load8(x + i) * load8(y + i);
  // Fixed-order reduction: pairwise over accumulators, then over lanes, then
  // the scalar tail — a function of n only.
  acc0 += acc1;
  acc2 += acc3;
  acc0 += acc2;
  double s = hsum(acc0);
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void gemv_trans_simd(double alpha, ConstMatrixView a, const double* x,
                     double beta, double* y) {
  const i64 m = a.rows;
  const auto finish = [&](i64 j, double s) {
    y[j] = alpha * s + (beta == 0.0 ? 0.0 : beta * y[j]);
  };
  i64 j = 0;
  for (; j + 4 <= a.cols; j += 4) {
    const double* __restrict c0 = a.col(j);
    const double* __restrict c1 = a.col(j + 1);
    const double* __restrict c2 = a.col(j + 2);
    const double* __restrict c3 = a.col(j + 3);
    v8df s00 = splat(0.0), s01 = splat(0.0), s10 = splat(0.0), s11 = splat(0.0);
    v8df s20 = splat(0.0), s21 = splat(0.0), s30 = splat(0.0), s31 = splat(0.0);
    i64 i = 0;
    for (; i + 16 <= m; i += 16) {
      const v8df x0 = load8(x + i);
      const v8df x1 = load8(x + i + 8);
      s00 += load8(c0 + i) * x0;
      s01 += load8(c0 + i + 8) * x1;
      s10 += load8(c1 + i) * x0;
      s11 += load8(c1 + i + 8) * x1;
      s20 += load8(c2 + i) * x0;
      s21 += load8(c2 + i + 8) * x1;
      s30 += load8(c3 + i) * x0;
      s31 += load8(c3 + i + 8) * x1;
    }
    if (i + 8 <= m) {
      const v8df x0 = load8(x + i);
      s00 += load8(c0 + i) * x0;
      s10 += load8(c1 + i) * x0;
      s20 += load8(c2 + i) * x0;
      s30 += load8(c3 + i) * x0;
      i += 8;
    }
    double t0 = hsum(s00 + s01), t1 = hsum(s10 + s11);
    double t2 = hsum(s20 + s21), t3 = hsum(s30 + s31);
    for (; i < m; ++i) {
      t0 += c0[i] * x[i];
      t1 += c1[i] * x[i];
      t2 += c2[i] * x[i];
      t3 += c3[i] * x[i];
    }
    finish(j, t0);
    finish(j + 1, t1);
    finish(j + 2, t2);
    finish(j + 3, t3);
  }
  for (; j < a.cols; ++j) finish(j, dot_simd(m, a.col(j), x));
}

void rot_simd(i64 n, double c, double s, double* x, double* y) noexcept {
  const v8df vc = splat(c);
  const v8df vs = splat(s);
  i64 i = 0;
  for (; i + 8 <= n; i += 8) {
    const v8df xi = load8(x + i);
    const v8df yi = load8(y + i);
    store8(x + i, vc * xi - vs * yi);
    store8(y + i, vs * xi + vc * yi);
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

void gemv_notrans_strided_simd(double alpha, ConstMatrixView a,
                               const double* x, i64 incx, double* y) {
  const i64 m = a.rows;
  for (i64 j = 0; j < a.cols; ++j) {
    const double axj = alpha * x[j * incx];
    const v8df vax = splat(axj);
    const double* __restrict aj = a.col(j);
    i64 i = 0;
    for (; i + 8 <= m; i += 8)
      store8(y + i, load8(y + i) + vax * load8(aj + i));
    for (; i < m; ++i) y[i] += axj * aj[i];
  }
}

void gemv_notrans_gather_simd(ConstMatrixView a, std::span<const i64> cols,
                              i64 col_base, const double* w, double* y) {
  const i64 m = a.rows;
  for (std::size_t q = 0; q < cols.size(); ++q) {
    const double axj = w[q];
    const v8df vax = splat(axj);
    const double* __restrict aj = a.col(cols[q] - col_base);
    i64 i = 0;
    for (; i + 8 <= m; i += 8)
      store8(y + i, load8(y + i) + vax * load8(aj + i));
    for (; i < m; ++i) y[i] += axj * aj[i];
  }
}

#else  // scalar fallbacks, same reduction orders

double dot_simd(i64 n, const double* x, const double* y) noexcept {
  double lanes[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  double acc[32];
  for (double& v : acc) v = 0.0;
  i64 i = 0;
  for (; i + 32 <= n; i += 32)
    for (int l = 0; l < 32; ++l) acc[l] += x[i + l] * y[i + l];
  for (; i + 8 <= n; i += 8)
    for (int l = 0; l < 8; ++l) acc[l] += x[i + l] * y[i + l];
  // acc0 += acc1; acc2 += acc3; acc0 += acc2 of the vector version, lanewise.
  for (int l = 0; l < 8; ++l)
    lanes[l] = (acc[l] + acc[8 + l]) + (acc[16 + l] + acc[24 + l]);
  double s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
             ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void gemv_trans_simd(double alpha, ConstMatrixView a, const double* x,
                     double beta, double* y) {
  const i64 m = a.rows;
  const auto finish = [&](i64 j, double s) {
    y[j] = alpha * s + (beta == 0.0 ? 0.0 : beta * y[j]);
  };
  i64 j = 0;
  for (; j + 4 <= a.cols; j += 4) {
    for (i64 q = 0; q < 4; ++q) {
      // One column of the vector version: two 8-lane accumulators over
      // 16-row blocks, an 8-row block into the first, then the tail.
      const double* c = a.col(j + q);
      double s0[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
      double s1[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
      i64 i = 0;
      for (; i + 16 <= m; i += 16)
        for (int l = 0; l < 8; ++l) {
          s0[l] += c[i + l] * x[i + l];
          s1[l] += c[i + 8 + l] * x[i + 8 + l];
        }
      if (i + 8 <= m) {
        for (int l = 0; l < 8; ++l) s0[l] += c[i + l] * x[i + l];
        i += 8;
      }
      for (int l = 0; l < 8; ++l) s0[l] += s1[l];
      double t = ((s0[0] + s0[1]) + (s0[2] + s0[3])) +
                 ((s0[4] + s0[5]) + (s0[6] + s0[7]));
      for (; i < m; ++i) t += c[i] * x[i];
      finish(j + q, t);
    }
  }
  for (; j < a.cols; ++j) finish(j, dot_simd(m, a.col(j), x));
}

void rot_simd(i64 n, double c, double s, double* x, double* y) noexcept {
  for (i64 i = 0; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

void gemv_notrans_strided_simd(double alpha, ConstMatrixView a,
                               const double* x, i64 incx, double* y) {
  const i64 m = a.rows;
  for (i64 j = 0; j < a.cols; ++j) {
    const double axj = alpha * x[j * incx];
    const double* __restrict aj = a.col(j);
    for (i64 i = 0; i < m; ++i) y[i] += axj * aj[i];
  }
}

void gemv_notrans_gather_simd(ConstMatrixView a, std::span<const i64> cols,
                              i64 col_base, const double* w, double* y) {
  const i64 m = a.rows;
  for (std::size_t q = 0; q < cols.size(); ++q) {
    const double axj = w[q];
    const double* __restrict aj = a.col(cols[q] - col_base);
    for (i64 i = 0; i < m; ++i) y[i] += axj * aj[i];
  }
}

#endif

void gemv_notrans_simd(double alpha, ConstMatrixView a, const double* x,
                       double* y) {
  gemv_notrans_strided_simd(alpha, a, x, 1, y);
}

}  // namespace parmvn::la::detail
