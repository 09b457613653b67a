// Before/after series for the sample-contiguous QMC integrand rewrite:
// entries/sec of core::qmc_tile_kernel (row-major panel sweep + batched
// SIMD Phi / Phi^-1) against a frozen copy of the seed's sample-major
// scalar kernel, at m in {128, 256, 512} x mc in {64, 256, 500}.
//
// The numbers land in BENCH_qmc_sweep.json at the repo root (regenerate
// with:  ./bench_qmc_sweep --json > ../BENCH_qmc_sweep.json ).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "core/qmc_kernel.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "linalg/potrf.hpp"
#include "stats/normal.hpp"
#include "stats/qmc.hpp"
#include "stats/rng.hpp"

namespace {

using namespace parmvn;

la::Matrix lower_factor(i64 n, u64 seed) {
  stats::Xoshiro256pp g(seed);
  la::Matrix m(n, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < n; ++i) m(i, j) = g.next_normal();
  la::Matrix s(n, n);
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1.0, m.view(), m.view(), 0.0,
           s.view());
  for (i64 i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
  la::potrf_lower_or_throw(s.view());
  return s;
}

// The seed's qmc_tile_kernel, frozen verbatim as the baseline: sample-major
// loop, L transposed once for a contiguous dot, one scalar Phi / diff /
// Phi^-1 per entry. (Panels here are the seed's dimension-major (m x mc)
// layout; the driver below transposes its inputs accordingly.)
void seed_kernel(la::ConstMatrixView l, const stats::PointSet& pts, i64 row0,
                 i64 col0, la::ConstMatrixView a, la::ConstMatrixView b,
                 la::MatrixView y, double* p, double* prefix_acc) {
  constexpr double kUEps = 1e-16;
  const i64 m = l.rows;
  const i64 mc = a.cols;
  la::Matrix lt(m, m);
  for (i64 i = 0; i < m; ++i)
    for (i64 k = 0; k <= i; ++k) lt(k, i) = l(i, k);

  for (i64 j = 0; j < mc; ++j) {
    const i64 sample = col0 + j;
    double pj = p[j];
    double* __restrict yj = y.col(j);
    for (i64 i = 0; i < m; ++i) {
      const double* __restrict lrow = lt.view().col(i);
      const double s = la::dot(i, lrow, yj);
      const double lii = lrow[i];
      const double ai = (a(i, j) - s) / lii;
      const double bi = (b(i, j) - s) / lii;
      const double phi_a = stats::norm_cdf(ai);
      const double d = stats::norm_cdf_diff(ai, bi);
      pj *= d;
      const double w = pts.value(row0 + i, sample);
      const double u = std::clamp(phi_a + w * d, kUEps, 1.0 - kUEps);
      yj[i] = stats::norm_quantile(u);
      if (prefix_acc != nullptr) prefix_acc[i] += pj;
    }
    p[j] = pj;
  }
}

struct Rate {
  double entries_per_s = 0.0;
  double checksum = 0.0;
};

template <class Run>
Rate measure(i64 m, i64 mc, double min_seconds, Run&& run) {
  // One warmup call, then repeat until the timed region is long enough.
  double checksum = run();
  const WallTimer timer;
  i64 reps = 0;
  do {
    checksum += run();
    ++reps;
  } while (timer.seconds() < min_seconds);
  Rate r;
  r.entries_per_s =
      static_cast<double>(m) * static_cast<double>(mc) * static_cast<double>(reps) /
      timer.seconds();
  r.checksum = checksum;
  return r;
}

struct Row {
  i64 m, mc;
  double seed_rate, batched_rate;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bool json = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  const double min_s = args.quick ? 0.05 : 0.5;

  const std::vector<i64> ms = {128, 256, 512};
  const std::vector<i64> mcs = {64, 256, 500};
  std::vector<Row> rows;

  for (const i64 m : ms) {
    const la::Matrix l = lower_factor(m, 3);
    for (const i64 mc : mcs) {
      const stats::PointSet pts(stats::SamplerKind::kRichtmyer, m,
                                std::max<i64>(mc, 64), 4, 7);
      // Batched layout: limit spans plus a sample-contiguous (mc x m) mean
      // panel that varies the effective lower limit per sample as the seed
      // panels do.
      std::vector<double> al(static_cast<std::size_t>(m));
      std::vector<double> bl(static_cast<std::size_t>(m));
      la::Matrix mean(mc, m), yb(mc, m);
      // Seed layout: dimension-major (m x mc).
      la::Matrix as(m, mc), bs(m, mc), ys(m, mc);
      for (i64 i = 0; i < m; ++i) {
        al[static_cast<std::size_t>(i)] = -1.4;
        bl[static_cast<std::size_t>(i)] = 0.9 + 0.04 * static_cast<double>(i % 7);
        for (i64 j = 0; j < mc; ++j) {
          mean(j, i) = 0.05 * static_cast<double>((i + j) % 5);
          as(i, j) = -1.4 - 0.05 * static_cast<double>((i + j) % 5);
          bs(i, j) = 0.9 + 0.04 * static_cast<double>((2 * i + j) % 7);
        }
      }
      std::vector<double> p(static_cast<std::size_t>(mc));

      const Rate batched = measure(m, mc, min_s, [&] {
        std::fill(p.begin(), p.end(), 1.0);
        core::qmc_tile_kernel(l.view(), pts, 0, 0, al, bl, mean.view(),
                              yb.view(), p.data(), nullptr);
        return p[0];
      });
      const Rate seed = measure(m, mc, min_s, [&] {
        std::fill(p.begin(), p.end(), 1.0);
        seed_kernel(l.view(), pts, 0, 0, as.view(), bs.view(), ys.view(),
                    p.data(), nullptr);
        return p[0];
      });
      rows.push_back({m, mc, seed.entries_per_s, batched.entries_per_s});
    }
  }

  if (json) {
    std::printf("{\n  \"bench\": \"qmc_sweep\",\n");
    std::printf("  \"kernel_native\": %s,\n",
                stats::norm_batch_vectorized() ? "true" : "false");
    std::printf("  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf("    {\"m\": %lld, \"mc\": %lld, "
                  "\"seed_entries_per_s\": %.6e, "
                  "\"batched_entries_per_s\": %.6e, \"speedup\": %.3f}%s\n",
                  static_cast<long long>(r.m), static_cast<long long>(r.mc),
                  r.seed_rate, r.batched_rate, r.batched_rate / r.seed_rate,
                  i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  } else {
    bench::header("qmc_sweep",
                  "integrand entries/sec: seed sample-major scalar kernel vs "
                  "sample-contiguous batched sweep",
                  args);
    std::printf("# batched transcendentals: %s\n",
                stats::norm_batch_vectorized() ? "native vector lanes"
                                               : "scalar fallback");
    std::printf("%6s %6s %16s %16s %9s\n", "m", "mc", "seed_entries/s",
                "batched_entries/s", "speedup");
    for (const Row& r : rows)
      std::printf("%6lld %6lld %16.3e %16.3e %8.2fx\n",
                  static_cast<long long>(r.m), static_cast<long long>(r.mc),
                  r.seed_rate, r.batched_rate, r.batched_rate / r.seed_rate);
  }
  return 0;
}
