// Factor-backend comparison for the Vecchia arm, two experiments:
//
//  1. pmvn_vs_tlr — on sizes where a dense factor is still affordable,
//     integrate the same box with the dense (truth), TLR and Vecchia arms
//     and report each approximation's probability error and wall time
//     (build + sweep). Vecchia trades the TLR compression error for the
//     conditioning-set truncation error at O(n m^3) build cost.
//
//  2. crd_100k — the confidence-region sweep on a >= 100k-site grid, the
//     scale the Vecchia arm exists for (a dense factor would need ~80 GB
//     and O(n^3) time). Runs under every worker count and verifies the
//     full determinism contract: the confidence function and region must
//     be bitwise identical across all runs.
//
// The numbers land in BENCH_vecchia.json at the repo root (regenerate
// with:  ./bench_vecchia --json > ../BENCH_vecchia.json ).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/timer.hpp"
#include "core/excursion.hpp"
#include "core/pmvn.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "runtime/runtime.hpp"
#include "stats/covariance.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tiled_potrf.hpp"
#include "tlr/tlr_potrf.hpp"
#include "vecchia/vecchia_factor.hpp"

namespace {

using namespace parmvn;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Row {
  i64 n = 0;
  const char* arm = "";
  i64 param = 0;  // TLR tile or Vecchia m
  double prob = 0.0;
  double err3 = 0.0;
  double abs_err = 0.0;  // |prob - dense prob|
  double build_s = 0.0;
  double sweep_s = 0.0;
};

std::vector<double> grid_xy(const geo::LocationSet& locs) {
  std::vector<double> xy;
  xy.reserve(2 * locs.size());
  for (const geo::Point& p : locs) {
    xy.push_back(p.x);
    xy.push_back(p.y);
  }
  return xy;
}

core::PmvnOptions sweep_opts() {
  core::PmvnOptions o;
  o.samples_per_shift = 500;
  o.shifts = 10;
  o.sampler = stats::SamplerKind::kRichtmyer;
  o.seed = 20240517;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bool json = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  if (!json)
    bench::header("Factor backends", "Vecchia vs TLR accuracy and wall time",
                  args);

  rt::Runtime rt(args.threads > 0 ? static_cast<int>(args.threads)
                                  : default_num_threads());

  // ---- experiment 1: accuracy/time against dense truth ----
  const std::vector<i64> sides =
      args.quick ? std::vector<i64>{20} : std::vector<i64>{32, 48};
  std::vector<Row> rows;
  for (const i64 side : sides) {
    geo::LocationSet locs = geo::regular_grid(side, side);
    locs = geo::apply_permutation(locs, geo::morton_order(locs));
    // Long range + a wide box keep the joint probability well above the QMC
    // noise floor, so the cross-arm deltas measure approximation error, not
    // sampling noise.
    auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.4);
    const geo::KernelCovGenerator gen(locs, kernel, 1e-6);
    const std::vector<double> xy = grid_xy(locs);
    const i64 n = gen.rows();
    const std::vector<double> a(static_cast<std::size_t>(n), -2.0);
    const std::vector<double> b(static_cast<std::size_t>(n), kInf);
    const core::PmvnOptions opts = sweep_opts();

    WallTimer td;
    tile::TileMatrix ld(rt, n, n, 256, tile::Layout::kLowerSymmetric);
    ld.generate_async(rt, gen);
    rt.wait_all();
    tile::potrf_tiled(rt, ld);
    const double dense_build = td.seconds();
    const engine::QueryResult rd = core::pmvn_dense(rt, ld, a, b, opts);
    rows.push_back({n, "dense", 256, rd.prob, rd.error3sigma, 0.0, dense_build,
                    rd.seconds});

    // The smooth long-range correlation is severely ill-conditioned, so the
    // TLR tolerance must sit well below the smallest eigenvalues it needs
    // to preserve — 1e-3 (the paper's sweep value for short ranges) factors
    // to a visibly wrong probability here.
    WallTimer tt;
    tlr::TlrMatrix lt = tlr::TlrMatrix::compress(rt, gen, 256, 1e-7, -1);
    tlr::potrf_tlr(rt, lt);
    const double tlr_build = tt.seconds();
    const engine::QueryResult rtl = core::pmvn_tlr(rt, lt, a, b, opts);
    rows.push_back({n, "tlr", 256, rtl.prob, rtl.error3sigma,
                    std::abs(rtl.prob - rd.prob), tlr_build, rtl.seconds});

    for (const i64 m : {15, 30, 60}) {
      const vecchia::VecchiaFactor f =
          vecchia::VecchiaFactor::build(rt, gen, xy, 256, m);
      const engine::QueryResult rv = core::pmvn_vecchia(rt, f, a, b, opts);
      rows.push_back({n, "vecchia", m, rv.prob, rv.error3sigma,
                      std::abs(rv.prob - rd.prob), f.build_seconds(),
                      rv.seconds});
    }
    if (!json) {
      for (const Row& r : rows)
        if (r.n == n)
          std::printf("n=%lld %s(%lld): p=%.6e err3=%.1e |dp|=%.2e "
                      "build=%.3fs sweep=%.3fs\n",
                      static_cast<long long>(r.n), r.arm,
                      static_cast<long long>(r.param), r.prob, r.err3,
                      r.abs_err, r.build_s, r.sweep_s);
      std::fflush(stdout);
    }
  }

  // ---- experiment 2: confidence regions at >= 100k sites ----
  const i64 crd_side = args.quick ? 64 : 320;
  const i64 crd_n = crd_side * crd_side;
  const geo::LocationSet locs = geo::regular_grid(crd_side, crd_side);
  auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.05);
  const geo::KernelCovGenerator cov(locs, kernel, 1e-6);
  std::vector<double> mean(locs.size());
  for (std::size_t i = 0; i < locs.size(); ++i) {
    const double dx = locs[i].x - 0.4;
    const double dy = locs[i].y - 0.55;
    mean[i] = 3.5 * std::exp(-14.0 * (dx * dx + dy * dy));
  }
  core::CrdOptions copts;
  copts.threshold = 1.0;
  copts.alpha = 0.1;
  copts.mode = core::CrdMode::kVecchia;
  copts.vecchia_m = 30;
  copts.tile = 256;
  copts.pmvn.samples_per_shift = 100;
  copts.pmvn.shifts = 4;
  copts.pmvn.sampler = stats::SamplerKind::kRichtmyer;
  copts.pmvn.seed = 20240517;

  struct CrdRun {
    int workers;
    double factor_s, sweep_s;
    i64 region_size;
  };
  std::vector<CrdRun> crd_runs;
  std::vector<double> ref_conf;
  bool bitwise = true;
  for (const int workers : {1, 2, 8}) {
    rt::Runtime crt(workers);
    const core::CrdResult r =
        core::detect_confidence_region(crt, cov, mean, copts);
    if (ref_conf.empty()) {
      ref_conf = r.confidence;
    } else {
      for (std::size_t i = 0; i < ref_conf.size(); ++i)
        if (r.confidence[i] != ref_conf[i]) bitwise = false;
    }
    crd_runs.push_back(
        {workers, r.factor_seconds, r.sweep_seconds, r.region_size});
    if (!json)
      std::printf("crd n=%lld m=30 workers=%d factor=%.2fs sweep=%.2fs "
                  "region=%lld\n",
                  static_cast<long long>(crd_n), workers, r.factor_seconds,
                  r.sweep_seconds, static_cast<long long>(r.region_size));
    std::fflush(stdout);
  }
  if (!json)
    std::printf("crd determinism across workers: %s\n",
                bitwise ? "bitwise" : "FAILED");

  if (json) {
    std::printf("{\n  \"bench\": \"vecchia\",\n  \"host_cpus\": %d,\n",
                default_num_threads());
    std::printf("  \"pmvn_vs_tlr\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf("    {\"n\": %lld, \"arm\": \"%s\", \"param\": %lld, "
                  "\"prob\": %.6e, \"err3sigma\": %.3e, \"abs_err_vs_dense\": "
                  "%.3e, \"build_s\": %.3e, \"sweep_s\": %.3e}%s\n",
                  static_cast<long long>(r.n), r.arm,
                  static_cast<long long>(r.param), r.prob, r.err3, r.abs_err,
                  r.build_s, r.sweep_s, i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"crd\": {\"n\": %lld, \"vecchia_m\": 30, \"tile\": 256, "
                "\"qmc_samples\": 400, \"bitwise_across_runs\": %s, "
                "\"runs\": [\n",
                static_cast<long long>(crd_n), bitwise ? "true" : "false");
    for (std::size_t i = 0; i < crd_runs.size(); ++i) {
      const CrdRun& r = crd_runs[i];
      std::printf("    {\"workers\": %d, \"factor_s\": %.3e, "
                  "\"sweep_s\": %.3e, \"region_size\": %lld}%s\n",
                  r.workers, r.factor_s, r.sweep_s,
                  static_cast<long long>(r.region_size),
                  i + 1 < crd_runs.size() ? "," : "");
    }
    std::printf("  ]}\n}\n");
  }
  return bitwise ? 0 : 1;
}
