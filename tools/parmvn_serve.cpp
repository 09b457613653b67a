// parmvn_serve — drive the serving layer (src/serve) from the command line.
//
// Registers a synthetic GP field (exponential kernel on a Morton-ordered
// regular grid), fires a configurable client load of excursion-probability
// requests at a serve::Server, and prints the server's health report:
// admission/rejection/deadline counts, batching shape, degradation rungs,
// factor-cache hits and leaked handles. Exits nonzero if any request is
// lost (a future that never resolves is impossible by contract — this
// checks the response ledger adds up) or the drained runtime leaked handle
// slots.
//
//   parmvn_serve [--smoke] [--side N] [--clients N] [--requests N]
//                [--window-ms N] [--max-batch N] [--capacity N]
//                [--deadline-ms N] [--threads N]
//
// --smoke runs a small, fast configuration (used by the parmvn_serve_smoke
// ctest) — a saturating burst against a tiny queue, so the report shows
// sheds and degradation rungs, not just happy-path completions.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "serve/server.hpp"
#include "stats/covariance.hpp"

namespace {

using namespace parmvn;

struct Cli {
  bool smoke = false;
  i64 side = 8;          // field is a side x side grid
  int clients = 4;       // concurrent submitter threads
  int requests = 8;      // requests per client
  i64 window_ms = 2;
  int max_batch = 16;
  std::size_t capacity = 64;
  i64 deadline_ms = 0;   // 0 = no per-request deadline
  int threads = 2;       // serving runtime workers
};

i64 parse_i64(const char* flag, const char* val) {
  char* end = nullptr;
  const long long v = std::strtoll(val, &end, 10);
  if (end == val || *end != '\0' || v < 0) {
    std::fprintf(stderr, "parmvn_serve: bad value for %s: '%s'\n", flag, val);
    std::exit(2);
  }
  return static_cast<i64>(v);
}

Cli parse(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "parmvn_serve: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      cli.smoke = true;
    } else if (arg == "--side") {
      cli.side = parse_i64("--side", next());
    } else if (arg == "--clients") {
      cli.clients = static_cast<int>(parse_i64("--clients", next()));
    } else if (arg == "--requests") {
      cli.requests = static_cast<int>(parse_i64("--requests", next()));
    } else if (arg == "--window-ms") {
      cli.window_ms = parse_i64("--window-ms", next());
    } else if (arg == "--max-batch") {
      cli.max_batch = static_cast<int>(parse_i64("--max-batch", next()));
    } else if (arg == "--capacity") {
      cli.capacity =
          static_cast<std::size_t>(parse_i64("--capacity", next()));
    } else if (arg == "--deadline-ms") {
      cli.deadline_ms = parse_i64("--deadline-ms", next());
    } else if (arg == "--threads") {
      cli.threads = static_cast<int>(parse_i64("--threads", next()));
    } else {
      std::fprintf(stderr, "parmvn_serve: unknown flag '%s'\n", arg.c_str());
      std::exit(2);
    }
  }
  if (cli.smoke) {
    // Small field, tiny queue, burst load: exercises batching, shedding and
    // the degradation ladder in well under a second.
    cli.side = 6;
    cli.clients = 4;
    cli.requests = 6;
    cli.window_ms = 5;
    cli.max_batch = 8;
    cli.capacity = 6;
    cli.threads = 2;
  }
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse(argc, argv);

  serve::ServeOptions opts;
  opts.queue_capacity = cli.capacity;
  opts.batch_window_ms = cli.window_ms;
  opts.max_batch = cli.max_batch;
  opts.engine.samples_per_shift = 200;
  opts.engine.shifts = 4;
  opts.engine.sampler = stats::SamplerKind::kRichtmyer;
  serve::Server server(opts, cli.threads);

  // One registered field: exponential-kernel GP on a Morton-ordered grid.
  const auto grid = geo::regular_grid(cli.side, cli.side);
  const auto locs = geo::apply_permutation(grid, geo::morton_order(grid));
  const auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.2);
  serve::FieldSpec field;
  field.cov = std::make_shared<geo::KernelCovGenerator>(locs, kernel, 1e-6);
  field.factor = engine::FactorSpec{engine::FactorKind::kDense, 16, 0.0, -1};
  const i64 n = field.cov->rows();
  server.register_field("gp", std::move(field));

  // Client load: each thread submits excursion queries P(X > level) at a
  // spread of levels, collects every future and tallies outcomes.
  std::atomic<i64> responses{0};
  std::atomic<i64> lost{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(cli.clients));
  for (int c = 0; c < cli.clients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<serve::Response>> futs;
      futs.reserve(static_cast<std::size_t>(cli.requests));
      for (int q = 0; q < cli.requests; ++q) {
        serve::Request req;
        req.field = "gp";
        const double level = -1.0 + 0.1 * static_cast<double>(q % 8);
        req.a.assign(static_cast<std::size_t>(n), level);
        req.seed = 42 + static_cast<u64>(c * cli.requests + q);
        req.deadline_ms = cli.deadline_ms;
        futs.push_back(server.submit(std::move(req)));
      }
      for (auto& f : futs) {
        if (!f.valid()) {
          ++lost;
          continue;
        }
        (void)f.get();  // always resolves: exactly-one-response contract
        ++responses;
      }
    });
  }
  for (auto& t : clients) t.join();
  server.drain();

  const serve::ServerStats s = server.stats();
  const i64 expected = static_cast<i64>(cli.clients) * cli.requests;
  std::printf("parmvn serve report\n");
  std::printf("  field            : gp (n = %lld)\n",
              static_cast<long long>(n));
  std::printf("  submitted        : %lld (responses %lld / expected %lld)\n",
              static_cast<long long>(s.submitted),
              static_cast<long long>(responses.load()),
              static_cast<long long>(expected));
  std::printf("  admitted         : %lld\n", static_cast<long long>(s.admitted));
  std::printf("  completed ok     : %lld\n",
              static_cast<long long>(s.completed_ok));
  std::printf("  shed overloaded  : %lld\n",
              static_cast<long long>(s.rejected_overload));
  std::printf("  expired in queue : %lld\n",
              static_cast<long long>(s.expired_in_queue));
  std::printf("  failed           : %lld\n", static_cast<long long>(s.failed));
  std::printf("  batches          : %lld (pipelined %lld, max size %lld, "
              "%.2f queries/batch)\n",
              static_cast<long long>(s.batches),
              static_cast<long long>(s.pipelined_batches),
              static_cast<long long>(s.max_batch_size),
              s.batches > 0 ? static_cast<double>(s.batched_queries) /
                                  static_cast<double>(s.batches)
                            : 0.0);
  std::printf("  degraded         : tiered %lld, shift-capped %lld\n",
              static_cast<long long>(s.degraded_tiered),
              static_cast<long long>(s.degraded_shift_capped));
  std::printf("  max queue depth  : %lld\n",
              static_cast<long long>(s.max_queue_depth));
  std::printf("  retries          : %lld (breaker trips %lld)\n",
              static_cast<long long>(s.retries),
              static_cast<long long>(s.breaker_trips));
  std::printf("  factor cache     : %lld hits / %lld misses / %lld evictions"
              " / %lld takeovers\n",
              static_cast<long long>(s.cache.hits),
              static_cast<long long>(s.cache.misses),
              static_cast<long long>(s.cache.evictions),
              static_cast<long long>(s.cache.in_flight_takeovers));
  std::printf("  handles leaked   : %lld\n",
              static_cast<long long>(s.handles_leaked));

  const i64 accounted = s.rejected_invalid + s.rejected_overload +
                        s.rejected_breaker + s.rejected_admit_fault +
                        s.expired_in_queue + s.completed_ok + s.failed;
  int rc = 0;
  if (lost.load() != 0 || responses.load() != expected) {
    std::fprintf(stderr, "parmvn_serve: lost responses (%lld of %lld)\n",
                 static_cast<long long>(expected - responses.load()),
                 static_cast<long long>(expected));
    rc = 1;
  }
  if (accounted != s.submitted) {
    std::fprintf(stderr,
                 "parmvn_serve: response ledger mismatch (%lld accounted, "
                 "%lld submitted)\n",
                 static_cast<long long>(accounted),
                 static_cast<long long>(s.submitted));
    rc = 1;
  }
  if (s.handles_leaked != 0) {
    std::fprintf(stderr, "parmvn_serve: %lld leaked handle slots after drain\n",
                 static_cast<long long>(s.handles_leaked));
    rc = 1;
  }
  return rc;
}
