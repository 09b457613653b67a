// Reproduces Fig. 5: rank distributions of a 19600 x 19600 covariance
// matrix (tile size 980, accuracy 1e-3) for the weak / medium / strong
// correlation settings. Runs at the paper's true scale by default, with the
// engine's compressor (dense tile generation + RRQR).
//
// Paper expectation: weak correlation keeps the highest ranks near the
// diagonal (tiles in the tens, e.g. 47/66), strong correlation degrades
// ranks hardest (near-diagonal 8-16), and ranks decay with distance from
// the diagonal for every setting.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "runtime/runtime.hpp"
#include "stats/covariance.hpp"
#include "tlr/tlr_matrix.hpp"

int main(int argc, char** argv) {
  using namespace parmvn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::header("Fig. 5", "tile rank distributions at accuracy 1e-3", args);

  const i64 side = args.quick ? 70 : 140;  // 140x140 = 19600 (paper scale)
  const i64 tile = args.quick ? 490 : 980;
  struct Setting {
    const char* name;
    double range;
  };
  const Setting settings[] = {{"weak (1, 0.033, 0.5)", 0.033},
                              {"medium (1, 0.1, 0.5)", 0.1},
                              {"strong (1, 0.234, 0.5)", 0.234}};

  for (const Setting& s : settings) {
    geo::LocationSet locs = geo::regular_grid(side, side);
    locs = geo::apply_permutation(locs, geo::morton_order(locs));
    auto kernel = std::make_shared<stats::MaternKernel>(1.0, s.range, 0.5);
    const geo::KernelCovGenerator gen(locs, kernel, 0.0);
    rt::Runtime rt(args.threads > 0 ? static_cast<int>(args.threads)
                                    : default_num_threads());
    const tlr::TlrMatrix m = tlr::TlrMatrix::compress(rt, gen, tile, 1e-3, -1);

    std::printf("\n## %s  (n=%lld, tile=%lld)\n", s.name,
                static_cast<long long>(m.dim()),
                static_cast<long long>(tile));
    const auto grid = m.rank_grid();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      std::printf("  ");
      for (std::size_t j = 0; j < grid[i].size(); ++j)
        std::printf("%4lld", static_cast<long long>(grid[i][j]));
      std::printf("\n");
    }
    // Bucket histogram like the figure's legend.
    i64 buckets[6] = {0, 0, 0, 0, 0, 0};  // [1,5][6,10][11,20][21,50][51,100][101+]
    for (std::size_t i = 1; i < grid.size(); ++i)
      for (std::size_t j = 0; j < i; ++j) {
        const i64 r = grid[i][j];
        if (r <= 5) ++buckets[0];
        else if (r <= 10) ++buckets[1];
        else if (r <= 20) ++buckets[2];
        else if (r <= 50) ++buckets[3];
        else if (r <= 100) ++buckets[4];
        else ++buckets[5];
      }
    std::printf(
        "buckets [1,5]=%lld [6,10]=%lld [11,20]=%lld [21,50]=%lld "
        "[51,100]=%lld [101+]=%lld  mean=%.1f max=%lld\n",
        static_cast<long long>(buckets[0]), static_cast<long long>(buckets[1]),
        static_cast<long long>(buckets[2]), static_cast<long long>(buckets[3]),
        static_cast<long long>(buckets[4]), static_cast<long long>(buckets[5]),
        m.mean_offdiag_rank(), static_cast<long long>(m.max_tile_rank()));
  }
  bench::row_comment(
      "paper: weak correlation shows the largest near-diagonal ranks; "
      "strong correlation degrades ranks most, speeding up TLR execution");
  return 0;
}
