// Microbenchmarks (google-benchmark) of the hot kernels: dense BLAS-3, the
// QMC tile kernel, tile compression and the scalar normal functions.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "core/qmc_kernel.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "linalg/blas.hpp"
#include "linalg/potrf.hpp"
#include "stats/bessel.hpp"
#include "stats/covariance.hpp"
#include "stats/normal.hpp"
#include "stats/qmc.hpp"
#include "stats/rng.hpp"
#include "tlr/lr_tile.hpp"

namespace {

using namespace parmvn;

la::Matrix random_matrix(i64 m, i64 n, u64 seed) {
  stats::Xoshiro256pp g(seed);
  la::Matrix a(m, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < m; ++i) a(i, j) = g.next_normal();
  return a;
}

la::Matrix spd_lower(i64 n) {
  la::Matrix a = random_matrix(n, n, 3);
  la::Matrix s(n, n);
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1.0, a.view(), a.view(), 0.0,
           s.view());
  for (i64 i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
  la::potrf_lower_or_throw(s.view());
  return s;
}

void BM_gemm(benchmark::State& state) {
  const i64 nb = state.range(0);
  const la::Matrix a = random_matrix(nb, nb, 1);
  const la::Matrix b = random_matrix(nb, nb, 2);
  la::Matrix c(nb, nb);
  for (auto _ : state) {
    la::gemm(la::Trans::kNo, la::Trans::kNo, 1.0, a.view(), b.view(), 1.0,
             c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * nb * nb * nb * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemm)->Arg(128)->Arg(256)->Arg(512);

// The shapes the library's GEMMs actually run, cycling through a pool of
// operand sets larger than L2 (8 x 1.5 MiB here) so each call starts from
// L3, as a sweep task does. BM_gemm_update is the dense sweep's
// M(250x256) += Y(250x256) * L_ir(256x256)^T: NT, beta = 1, k = 256 split
// into kKC blocks of 192 + 64.
constexpr int kPool = 8;

void BM_gemm_update(benchmark::State& state) {
  const i64 mc = 250;
  const i64 nb = 256;
  std::vector<la::Matrix> y, l, m;
  for (int q = 0; q < kPool; ++q) {
    y.push_back(random_matrix(mc, nb, 10 + q));
    l.push_back(random_matrix(nb, nb, 30 + q));
    m.push_back(random_matrix(mc, nb, 50 + q));
  }
  int q = 0;
  for (auto _ : state) {
    la::gemm(la::Trans::kNo, la::Trans::kYes, 1.0, y[q].view(), l[q].view(),
             1.0, m[q].view());
    benchmark::DoNotOptimize(m[q].data());
    q = (q + 1) % kPool;
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * mc * nb * nb * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemm_update);

// The TLR sweep's update M(500x512) += (Y V) U^T through a rank-30 tile
// L_ir = U V^T (tile 512, crd_tlr's 500-sample column tile): an NN GEMM
// with n = 30 into a scratch, then an NT GEMM with k = 30.
void BM_gemm_lowrank(benchmark::State& state) {
  const i64 mc = 500;
  const i64 nb = 512;
  const i64 rank = 30;
  std::vector<la::Matrix> y, u, v, m;
  for (int q = 0; q < kPool; ++q) {
    y.push_back(random_matrix(mc, nb, 10 + q));
    u.push_back(random_matrix(nb, rank, 30 + q));
    v.push_back(random_matrix(nb, rank, 50 + q));
    m.push_back(random_matrix(mc, nb, 70 + q));
  }
  la::Matrix tmp(mc, rank);
  int q = 0;
  for (auto _ : state) {
    la::gemm(la::Trans::kNo, la::Trans::kNo, 1.0, y[q].view(), v[q].view(),
             0.0, tmp.view());
    la::gemm(la::Trans::kNo, la::Trans::kYes, 1.0, tmp.view(), u[q].view(),
             1.0, m[q].view());
    benchmark::DoNotOptimize(m[q].data());
    q = (q + 1) % kPool;
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      4.0 * mc * nb * rank * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemm_lowrank);

// The seed's unblocked axpy-sweep GEMM (four C columns per pass), kept as
// the baseline for the blocked/register-tiled kernel that replaced it —
// modulo the column-remainder `if (blj == 0.0) continue;` zero-skip, a
// NaN-propagation bug fixed in PR 2 (perf-neutral on random bench data).
// BM_gemm vs BM_gemm_axpy_seed at equal sizes is the before/after series
// for la::gemm.
void gemm_axpy_seed(double alpha, la::ConstMatrixView a, la::ConstMatrixView b,
                    la::MatrixView c) {
  const i64 m = c.rows;
  const i64 n = c.cols;
  const i64 k = a.cols;
  i64 j = 0;
  for (; j + 4 <= n; j += 4) {
    double* __restrict c0 = c.col(j);
    double* __restrict c1 = c.col(j + 1);
    double* __restrict c2 = c.col(j + 2);
    double* __restrict c3 = c.col(j + 3);
    for (i64 l = 0; l < k; ++l) {
      const double* __restrict al = a.col(l);
      const double b0 = alpha * b(l, j);
      const double b1 = alpha * b(l, j + 1);
      const double b2 = alpha * b(l, j + 2);
      const double b3 = alpha * b(l, j + 3);
      for (i64 i = 0; i < m; ++i) {
        const double ai = al[i];
        c0[i] += b0 * ai;
        c1[i] += b1 * ai;
        c2[i] += b2 * ai;
        c3[i] += b3 * ai;
      }
    }
  }
  for (; j < n; ++j) {
    double* __restrict cj = c.col(j);
    for (i64 l = 0; l < k; ++l) {
      const double blj = alpha * b(l, j);
      const double* __restrict al = a.col(l);
      for (i64 i = 0; i < m; ++i) cj[i] += blj * al[i];
    }
  }
}

void BM_gemm_axpy_seed(benchmark::State& state) {
  const i64 nb = state.range(0);
  const la::Matrix a = random_matrix(nb, nb, 1);
  const la::Matrix b = random_matrix(nb, nb, 2);
  la::Matrix c(nb, nb);
  for (auto _ : state) {
    gemm_axpy_seed(1.0, a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * nb * nb * nb * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemm_axpy_seed)->Arg(128)->Arg(256)->Arg(512);

void BM_potrf(benchmark::State& state) {
  const i64 nb = state.range(0);
  la::Matrix a = random_matrix(nb, nb, 4);
  la::Matrix s(nb, nb);
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1.0, a.view(), a.view(), 0.0,
           s.view());
  for (i64 i = 0; i < nb; ++i) s(i, i) += static_cast<double>(nb);
  for (auto _ : state) {
    la::Matrix work = la::to_matrix(s.view());
    la::potrf_lower_or_throw(work.view());
    benchmark::DoNotOptimize(work.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      nb * nb * nb / 3.0 * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_potrf)->Arg(128)->Arg(256)->Arg(512);

void BM_trsm(benchmark::State& state) {
  const i64 nb = state.range(0);
  const la::Matrix l = spd_lower(nb);
  const la::Matrix b0 = random_matrix(nb, nb, 5);
  for (auto _ : state) {
    la::Matrix b = la::to_matrix(b0.view());
    la::trsm(la::Side::kRight, la::Trans::kYes, 1.0, l.view(), b.view());
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_trsm)->Arg(128)->Arg(256)->Arg(512);

// The sample-contiguous panel sweep (rows = samples) of an m x m tile over
// mc samples, Arg pair (m, mc); the counter is integrand entries (chain
// steps x samples) per second. Square panels at m = 128/256/512, then the
// column tiles the e2e workloads run: crd_tlr (512, 500), crd_dense
// (256, 256) and serve_open (128, 100). bench_qmc_sweep has the full
// before/after series against the seed's sample-major scalar kernel.
void run_qmc_kernel(benchmark::State& state, stats::SamplerKind kind,
                    i64 samples_per_shift, double upper) {
  const i64 nb = state.range(0);
  const i64 mc = state.range(1);
  const la::Matrix l = spd_lower(nb);
  const int shifts =
      static_cast<int>((mc + samples_per_shift - 1) / samples_per_shift);
  const stats::PointSet pts(kind, nb, samples_per_shift, shifts, 7);
  const std::vector<double> a(static_cast<std::size_t>(nb), -1.0);
  const std::vector<double> b(static_cast<std::size_t>(nb), upper);
  const la::Matrix mean(mc, nb);  // a first tile row: no external mean
  la::Matrix y(mc, nb);
  std::vector<double> p(static_cast<std::size_t>(mc), 1.0);
  for (auto _ : state) {
    std::fill(p.begin(), p.end(), 1.0);
    core::qmc_tile_kernel(l.view(), pts, 0, 0, a, b, mean.view(), y.view(),
                          p.data(), nullptr);
    benchmark::DoNotOptimize(p.data());
    benchmark::ClobberMemory();
  }
  state.counters["entries/s"] = benchmark::Counter(
      static_cast<double>(nb * mc) * state.iterations(),
      benchmark::Counter::kIsRate);
}

// Pseudo-MC points, two-sided limits [-1, 1].
void BM_qmc_kernel(benchmark::State& state) {
  run_qmc_kernel(state, stats::SamplerKind::kPseudoMC, state.range(1), 1.0);
}
BENCHMARK(BM_qmc_kernel)
    ->Args({128, 128})
    ->Args({256, 256})
    ->Args({512, 512})
    ->Args({512, 500})
    ->Args({128, 100});

// The crd_* and serve_open shape: Richtmyer points at 50 samples per shift
// and one-sided limits [-1, +inf), so the row tail takes the one-erfc path
// and fill_row's per-shift offset. crd_tlr (512, 500), crd_dense (256, 256).
void BM_qmc_kernel_one_sided(benchmark::State& state) {
  run_qmc_kernel(state, stats::SamplerKind::kRichtmyer, 50,
                 std::numeric_limits<double>::infinity());
}
BENCHMARK(BM_qmc_kernel_one_sided)->Args({512, 500})->Args({256, 256});

void BM_norm_cdf_batch(benchmark::State& state) {
  const i64 n = 4096;
  std::vector<double> x(static_cast<std::size_t>(n)), out(
      static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] = -4.0 + 8.0 * static_cast<double>(i) /
                                                static_cast<double>(n);
  for (auto _ : state) {
    stats::norm_cdf_batch(n, x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["values/s"] = benchmark::Counter(
      static_cast<double>(n) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_norm_cdf_batch);

void BM_norm_quantile_batch(benchmark::State& state) {
  const i64 n = 4096;
  std::vector<double> p(static_cast<std::size_t>(n)), out(
      static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    p[static_cast<std::size_t>(i)] =
        (static_cast<double>(i) + 0.5) / static_cast<double>(n);
  for (auto _ : state) {
    stats::norm_quantile_batch(n, p.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["values/s"] = benchmark::Counter(
      static_cast<double>(n) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_norm_quantile_batch);

void BM_compress_block(benchmark::State& state) {
  const i64 nb = state.range(0);
  geo::LocationSet locs = geo::regular_grid(32, 32);
  locs = geo::apply_permutation(locs, geo::morton_order(locs));
  auto kernel = std::make_shared<stats::MaternKernel>(1.0, 0.4, 0.5);
  const geo::KernelCovGenerator gen(locs, kernel, 0.0);
  la::Matrix block(nb, nb);
  gen.fill(nb, 0, block.view());
  for (auto _ : state) {
    const tlr::LowRankTile t = tlr::compress_block(block.view(), 1e-3, -1);
    benchmark::DoNotOptimize(t.rank());
  }
}
BENCHMARK(BM_compress_block)->Arg(128)->Arg(256)->Arg(512);

// The TLR Cholesky's update kernel at the shapes the n = 4096 confidence-
// region detection feeds it: 512-row tiles whose concatenated rank (tile +
// update) is range(0). Sites are shuffled, as the detection's ordering by
// marginal probability scatters them; the two halves are compressions of
// two exponential-kernel blocks sharing their rows, capped so the
// concatenated rank is exact.
void BM_recompress(benchmark::State& state) {
  const i64 nb = 512;
  const i64 rank = state.range(0);
  geo::LocationSet locs = geo::regular_grid(64, 64);
  std::vector<i64> perm(locs.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<i64>(i);
  stats::Xoshiro256pp g(7);
  for (std::size_t i = perm.size() - 1; i > 0; --i)
    std::swap(perm[i], perm[g.next() % (i + 1)]);
  locs = geo::apply_permutation(locs, perm);
  auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.1);
  const geo::KernelCovGenerator gen(locs, kernel, 0.0);
  la::Matrix b1(nb, nb), b2(nb, nb);
  gen.fill(nb, 0, b1.view());
  gen.fill(nb, 2 * nb, b2.view());
  const tlr::LowRankTile t1 = tlr::compress_block(b1.view(), 1e-14, rank / 2);
  const tlr::LowRankTile t2 =
      tlr::compress_block(b2.view(), 1e-14, rank - rank / 2);
  tlr::LowRankTile wide{la::Matrix(nb, rank), la::Matrix(nb, rank)};
  la::copy_into(t1.u.view(), wide.u.sub(0, 0, nb, t1.rank()));
  la::copy_into(t1.v.view(), wide.v.sub(0, 0, nb, t1.rank()));
  la::copy_into(t2.u.view(), wide.u.sub(0, t1.rank(), nb, t2.rank()));
  la::copy_into(t2.v.view(), wide.v.sub(0, t1.rank(), nb, t2.rank()));
  for (auto _ : state) {
    const tlr::LowRankTile t = tlr::recompress(wide, 1e-3, -1);
    benchmark::DoNotOptimize(t.rank());
  }
}
BENCHMARK(BM_recompress)
    ->Arg(64)
    ->Arg(108)
    ->Arg(224)
    ->Unit(benchmark::kMillisecond);

void BM_norm_cdf(benchmark::State& state) {
  double x = -4.0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += stats::norm_cdf(x);
    x += 1e-5;
    if (x > 4.0) x = -4.0;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_norm_cdf);

void BM_norm_quantile(benchmark::State& state) {
  double p = 1e-6;
  double acc = 0.0;
  for (auto _ : state) {
    acc += stats::norm_quantile(p);
    p += 1e-7;
    if (p > 1.0 - 1e-6) p = 1e-6;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_norm_quantile);

void BM_bessel_k(benchmark::State& state) {
  double x = 0.1;
  double acc = 0.0;
  for (auto _ : state) {
    acc += stats::bessel_k(1.43391, x);
    x += 1e-4;
    if (x > 20.0) x = 0.1;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_bessel_k);

}  // namespace

BENCHMARK_MAIN();
