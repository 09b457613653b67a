// bench_e2e — one harness for the end-to-end numbers of parmvn: how long a
// whole confidence-region detection takes and how accurate it is (dense,
// TLR and Vecchia arms), and the latency and throughput of the serving
// layer under offered load, with a traced per-layer breakdown.
//
//   bench_e2e --workload=<name> --seed=<s> [--seconds=<t>] [--trace=<dir>]
//             [--json=<file>] [--quick]
//   bench_e2e --make-ref --workload=<crd_*> [--quick]
//   bench_e2e --compare <base.json> <new.json>
//   bench_e2e --smoke
//
// A run prints every metric as `name value unit`, then, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics, or with --trace the per-layer ones. It exits non-zero
// when a correctness check fails. The seed sets the QMC seeds, the serve
// arrival schedule and the serve request mix; the fields and thresholds are
// fixed per workload. Only public entry points are timed:
// core::detect_confidence_regions, serve::Server::submit and the host-side
// probes of a traced run. README.md documents the workloads, the metrics and
// how to run a set, a traced run and a compare.
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/hash.hpp"
#include "common/timer.hpp"
#include "core/excursion.hpp"
#include "engine/factor_cache.hpp"
#include "engine/pmvn_engine.hpp"
#include "ep/ep_screen.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "runtime/runtime.hpp"
#include "runtime/trace.hpp"
#include "serve/server.hpp"
#include "stats/covariance.hpp"
#include "stats/normal.hpp"
#include "tlr/tlr_matrix.hpp"
#include "vecchia/ordering.hpp"

#ifndef PARMVN_E2E_DIR
#define PARMVN_E2E_DIR "bench/e2e"
#endif
#ifndef PARMVN_E2E_BUILD_TYPE
#define PARMVN_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace parmvn;
using Clock = std::chrono::steady_clock;

constexpr double kInf = std::numeric_limits<double>::infinity();

// A run repeats its set-up at least kSetupReps times and until kSetupSeconds
// have passed, and reports the median, so that set-up time is steady enough
// to gate.
constexpr std::size_t kSetupReps = 3;
constexpr double kSetupSeconds = 1.0;
// Fewest timed detections per run (and per half of a traced run), so that a
// median exists even when one detection outlasts the time budget.
constexpr int kMinReps = 3;
// Correctness tolerances against the committed references, about twice the
// largest error seen over ten seeds (README.md, "References"). They catch a
// wrong answer, not QMC noise: at 500 samples per query the confidence
// envelope (a running minimum of noisy prefix estimates) sits low, so regions
// come out 4-7% smaller than the 10,000-sample reference's.
constexpr double kRegionTol = 0.15;
constexpr double kPrefixTol = 0.08;
constexpr i64 kRefRows = 64;
constexpr u64 kRefSeed = 20240527;

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Nearest-rank percentile, p in (0, 1]. Infinite entries (refused or failed
// requests) sort last.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// First and third quartiles exactly as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method).
std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const i64 ld = static_cast<i64>(v.size());
  if (ld < 2) return {v.front(), v.front()};
  const i64 m = ld + 1;
  const auto q = [&](i64 i) {
    const i64 j = std::clamp<i64>(i * m / 4, 1, ld - 1);
    const i64 delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {q(1), q(3)};
}

double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double lo = 0.0;
  double hi = -kInf;
  for (const auto& [s, e] : iv) {
    if (s > hi) {
      if (hi > lo) total += hi - lo;
      lo = s;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

u64 mix_seed(u64 seed, u64 k) {  // splitmix64 finaliser
  u64 z = seed + 0x9e3779b97f4a7c15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double unit_uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ JSON

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Just enough of a JSON reader for BENCHMARK.json, the references and the
// results files this program writes itself.
struct Json {
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  [[nodiscard]] const Json* find(std::string_view key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
  [[nodiscard]] const Json& at(std::string_view key) const {
    const Json* v = find(key);
    if (v == nullptr) throw std::runtime_error("JSON key missing: " + std::string(key));
    return *v;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : s_(std::move(text)) {}

  Json parse() {
    Json v = value();
    skip_space();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("JSON parse error at offset " + std::to_string(i_) +
                             ": " + what);
  }
  void skip_space() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  bool consume(std::string_view word) {
    if (s_.compare(i_, word.size(), word) != 0) return false;
    i_ += word.size();
    return true;
  }
  void expect(char c) {
    skip_space();
    if (i_ >= s_.size() || s_[i_] != c) fail("unexpected character");
    ++i_;
  }
  // The comma-separated items of an object or array, up to `close`.
  template <class F>
  void items(char close, F&& item) {
    ++i_;
    skip_space();
    if (i_ < s_.size() && s_[i_] == close) {
      ++i_;
      return;
    }
    for (;;) {
      item();
      skip_space();
      if (i_ >= s_.size() || s_[i_] != ',') break;
      ++i_;
    }
    expect(close);
  }
  std::string string_body() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      out += s_[i_++];
    }
    if (i_ >= s_.size()) fail("unterminated string");
    ++i_;
    return out;
  }
  Json value() {
    skip_space();
    if (i_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[i_];
    if (c == '{') {
      items('}', [&] {
        std::string key = string_body();
        expect(':');
        v.object.emplace_back(std::move(key), value());
      });
      return v;
    }
    if (c == '[') {
      items(']', [&] { v.array.push_back(value()); });
      return v;
    }
    if (c == '"') {
      v.string = string_body();
      return v;
    }
    if (consume("true") || consume("false") || consume("null")) return v;
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    v.number = std::strtod(begin, &end);
    if (end == begin) fail("bad value");
    i_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  std::string s_;
  std::size_t i_ = 0;
};

Json read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return JsonReader(ss.str()).parse();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

// ------------------------------------------------------------ options

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = -1.0;  // < 0: 20 s, or 1 s with --quick
  std::string trace_dir;  // non-empty: traced run
  std::string json_path;
  bool quick = false;
  bool make_ref = false;
  bool smoke = false;
  std::vector<std::string> compare;

  [[nodiscard]] bool traced() const { return !trace_dir.empty(); }
};

// The BENCHMARK.json of the checkout this binary was built from.
std::string benchmark_path() {
  return std::string(PARMVN_E2E_DIR) + "/../../BENCHMARK.json";
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&](std::string_view key) -> std::optional<std::string> {
      if (a.size() > key.size() && a.substr(0, key.size()) == key &&
          a[key.size()] == '=')
        return std::string(a.substr(key.size() + 1));
      return std::nullopt;
    };
    if (auto v = value("--workload")) o.workload = *v;
    else if (auto v = value("--seed")) o.seed = std::stoull(*v);
    else if (auto v = value("--seconds")) o.seconds = std::stod(*v);
    else if (auto v = value("--trace")) o.trace_dir = *v;
    else if (auto v = value("--json")) o.json_path = *v;
    else if (a == "--quick") o.quick = true;
    else if (a == "--make-ref") o.make_ref = true;
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--compare" && i + 2 < argc) {
      o.compare = {argv[i + 1], argv[i + 2]};
      i += 2;
    } else {
      throw std::runtime_error("unknown argument: " + std::string(a));
    }
  }
  if (o.seconds < 0.0) o.seconds = o.quick ? 1.0 : 20.0;
  if (!(o.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return o;
}

// ------------------------------------------------------------ results

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json names, in print order; --smoke checks that the
// two lists agree.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

// Per detection on crd_*, per completed request on serve_open. A layer a
// workload does not exercise reads 0, as do the trace-derived metrics on
// serve_open (serve::Server has no trace switch).
constexpr MetricDef kPerLayer[] = {
    {"runtime.tasks", "count"},
    {"runtime.tasks_stolen", "count"},
    {"runtime.busy_frac", "fraction"},
    {"runtime.idle_s", "s"},
    {"runtime.trace_overhead", "fraction"},
    {"geo.generate_s", "s"},
    {"linalg.gemm_gflops", "GF/s"},
    {"tile.factor_task_s", "s"},
    {"tile.gemm_gflops", "GF/s"},
    {"tile.peak_frac", "fraction"},
    {"tlr.compress_s", "s"},
    {"tlr.factor_task_s", "s"},
    {"tlr.mean_rank", "count"},
    {"vecchia.order_s", "s"},
    {"vecchia.neighbors_s", "s"},
    {"vecchia.fit_s", "s"},
    {"engine.factor_s", "s"},
    {"engine.sweep_s", "s"},
    {"engine.factors_built", "count"},
    {"engine.init_s", "s"},
    {"engine.update_s", "s"},
    {"engine.update_gflops", "GF/s"},
    {"engine.qmc_s", "s"},
    {"engine.qmc_ns_per_entry", "ns"},
    {"engine.samples", "count"},
    {"engine.host_s", "s"},
    {"stats.phi_ns", "ns"},
    {"stats.phi_inv_ns", "ns"},
    {"ep.flatten_s", "s"},
    {"ep.screen_s", "s"},
    {"ep.retired_frac", "fraction"},
    {"ep.sweeps", "count"},
    {"core.host_s", "s"},
    {"serve.mean_batch", "count"},
    {"serve.batches", "count"},
    {"serve.degraded_frac", "fraction"},
    {"serve.shed_frac", "fraction"},
    {"serve.max_queue_depth", "count"},
    {"serve.cache_hit_rate", "fraction"},
    {"serve.gen_lag_p99_ms", "ms"},
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;
using Values = std::map<std::string, double, std::less<>>;

// Values in table order with their units; a value the table does not name
// is a programming error.
Metrics to_metrics(std::span<const MetricDef> defs, const Values& values) {
  Metrics out;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    out.push_back({d.name, it == values.end() ? 0.0 : it->second, d.unit});
  }
  for (const auto& [name, v] : values)
    if (std::none_of(defs.begin(), defs.end(),
                     [&](const MetricDef& d) { return name == d.name; }))
      throw std::logic_error("metric " + name + " is not in the metric table");
  return out;
}

struct RunResult {
  Values e2e;    // end-to-end metrics (from the untraced reps)
  Values layer;  // per-layer metrics (traced runs only)
  i64 attempted = 0;
  i64 failed = 0;
  bool correct = true;
  std::vector<std::string> notes;  // printed after the metrics
  std::string scheduler;
  int workers = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) correct = false;
    notes.push_back((ok ? "ok   " : "FAIL ") + what);
  }
};

const char* scheduler_name(rt::SchedulerKind k) {
  return k == rt::SchedulerKind::kGlobalQueue ? "global_queue" : "work_steal";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string metrics_json(const Metrics& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_string(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
         ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return s + "}";
}

// ------------------------------------------------------------ workloads

double ladder(int k) { return 0.7 + 0.75 * static_cast<double>(k) / 16.0; }

// bench_batched_queries' field: a smooth bump above the threshold band, plus
// a deterministic tilt that keeps the marginals strictly ordered.
std::vector<double> bump_mean(const geo::LocationSet& locs) {
  std::vector<double> mean(locs.size());
  for (std::size_t i = 0; i < locs.size(); ++i) {
    const double dx = locs[i].x - 0.35;
    const double dy = locs[i].y - 0.6;
    mean[i] = 3.2 * std::exp(-10.0 * (dx * dx + dy * dy)) +
              1e-4 * static_cast<double>(i % 101);
  }
  return mean;
}

// bench_ep's field: a high plateau over a deep background, so every
// threshold's prefix curve jumps across the 1-alpha level and the EP screen
// can decide it.
std::vector<double> plateau_mean(const geo::LocationSet& locs) {
  std::vector<double> mean(locs.size());
  for (std::size_t i = 0; i < locs.size(); ++i) {
    const double dx = locs[i].x - 0.35;
    const double dy = locs[i].y - 0.6;
    const bool high = dx * dx + dy * dy < 0.0144;
    mean[i] = (high ? 6.0 : -2.0) + 1e-4 * static_cast<double>(i % 101);
  }
  return mean;
}

struct CrdSpec {
  const char* name;
  i64 side;
  i64 quick_side;
  bool plateau;  // plateau_mean, else bump_mean
  core::CrdMode mode;
  i64 tile;
  i64 quick_tile;
  bool adaptive_tiered;  // adaptive + tiered (cap 50 x 16), else fixed 50 x 10
  int ladder_stride;     // every ladder_stride-th of the 16 thresholds
};

// Why each workload exists is in README.md; in short: crd_dense is the
// paper's Algorithm 1+2 on a dense tiled factor, crd_tlr the same field on
// TLR (low-rank updates bypass the dense update GEMM), crd_vecchia the
// 100k-site regime where Vecchia and the EP screen do the work.
constexpr CrdSpec kCrdSpecs[] = {
    {"crd_dense", 64, 24, false, core::CrdMode::kDense, 256, 96, false, 1},
    {"crd_tlr", 64, 24, false, core::CrdMode::kTlr, 512, 96, false, 1},
    {"crd_vecchia", 320, 64, true, core::CrdMode::kVecchia, 512, 512, true, 2},
};

const CrdSpec* find_crd(std::string_view name) {
  for (const CrdSpec& s : kCrdSpecs)
    if (name == s.name) return &s;
  return nullptr;
}

core::CrdOptions crd_options(const CrdSpec& w, bool quick, u64 seed) {
  core::CrdOptions o;
  o.alpha = 0.1;
  o.mode = w.mode;
  o.tile = quick ? w.quick_tile : w.tile;
  o.tlr_tol = 1e-3;
  o.vecchia_m = 30;
  o.pmvn.sampler = stats::SamplerKind::kRichtmyer;
  o.pmvn.samples_per_shift = 50;
  o.pmvn.shifts = w.adaptive_tiered ? 16 : 10;
  o.pmvn.adaptive = w.adaptive_tiered;
  o.pmvn.tiered = w.adaptive_tiered;
  o.pmvn.seed = seed;
  return o;
}

// The reference arm: dense at 10,000 samples per query for crd_dense and
// crd_tlr (so TLR's approximation error counts against it), the untiered
// Vecchia arm at 2,000 samples per query for crd_vecchia.
core::CrdOptions reference_options(const CrdSpec& w, bool quick) {
  core::CrdOptions o = crd_options(w, quick, kRefSeed);
  o.pmvn.adaptive = false;
  o.pmvn.tiered = false;
  o.pmvn.shifts = 10;
  if (w.mode == core::CrdMode::kVecchia) {
    o.pmvn.samples_per_shift = 200;
  } else {
    o.mode = core::CrdMode::kDense;
    o.tile = quick ? 96 : 256;
    o.pmvn.samples_per_shift = 1000;
  }
  return o;
}

engine::FactorSpec factor_spec(const core::CrdOptions& o) {
  engine::FactorSpec s;
  s.kind = o.mode == core::CrdMode::kDense ? engine::FactorKind::kDense
           : o.mode == core::CrdMode::kTlr ? engine::FactorKind::kTlr
                                           : engine::FactorKind::kVecchia;
  s.tile = o.tile;
  s.tlr_tol = o.tlr_tol;
  s.tlr_max_rank = o.tlr_max_rank;
  s.vecchia_m = o.vecchia_m;
  return s;
}

struct CrdInputs {
  std::unique_ptr<geo::KernelCovGenerator> cov;
  std::vector<double> mean;
  std::vector<core::CrdQuery> queries;
};

CrdInputs make_crd_inputs(const CrdSpec& w, bool quick, u64 seed) {
  const i64 side = quick ? w.quick_side : w.side;
  const geo::LocationSet locs = geo::regular_grid(side, side);
  CrdInputs in;
  in.mean = w.plateau ? plateau_mean(locs) : bump_mean(locs);
  in.cov = std::make_unique<geo::KernelCovGenerator>(
      locs, std::make_shared<stats::ExponentialKernel>(1.0, 0.1), 1e-6);
  for (int k = 0; k < 16; k += w.ladder_stride) {
    core::CrdQuery q;
    q.threshold = ladder(k);
    q.alpha = 0.1;
    q.seed = mix_seed(seed, static_cast<u64>(k));
    in.queries.push_back(q);
  }
  return in;
}

// ------------------------------------------------------------ references

std::vector<i64> reference_rows(i64 n) {
  std::vector<i64> rows;
  for (i64 j = 0; j < kRefRows; ++j) rows.push_back(j * (n - 1) / (kRefRows - 1));
  return rows;
}

std::string order_hash(const std::vector<i64>& order) {
  const u64 h =
      fnv1a_append(kFnv1aOffset, order.data(), order.size() * sizeof(i64));
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

std::string reference_path(const Options& o, std::string_view workload) {
  return std::string(PARMVN_E2E_DIR) + "/ref/" + std::string(workload) +
         (o.quick ? ".quick" : "") + ".json";
}

struct Reference {
  std::vector<i64> rows;
  std::vector<i64> region_size;
  std::vector<std::string> order_hash;
  std::vector<std::vector<double>> prefix;  // per query, at `rows`
};

Reference read_reference(const std::string& path) {
  const Json j = read_json(path);
  Reference ref;
  for (const Json& r : j.at("rows").array)
    ref.rows.push_back(static_cast<i64>(r.number));
  for (const Json& q : j.at("queries").array) {
    ref.region_size.push_back(static_cast<i64>(q.at("region_size").number));
    ref.order_hash.push_back(q.at("order_hash").string);
    std::vector<double> p;
    for (const Json& v : q.at("prefix_prob").array) p.push_back(v.number);
    ref.prefix.push_back(std::move(p));
  }
  return ref;
}

struct Accuracy {
  double region_err = 0.0;  // sum_q |k_q - k_ref,q| / sum_q k_ref,q
  double prefix_err = 0.0;  // max |prefix_prob - ref| at the sampled rows
  bool order_ok = true;
};

Accuracy compare_to_reference(const Reference& ref,
                              const std::vector<core::CrdResult>& res) {
  if (res.size() != ref.region_size.size())
    throw std::runtime_error("reference has a different query count");
  Accuracy acc;
  i64 diff = 0;
  i64 total = 0;
  for (std::size_t q = 0; q < res.size(); ++q) {
    if (!res[q].status.ok()) continue;
    acc.order_ok = acc.order_ok && order_hash(res[q].order) == ref.order_hash[q];
    diff += std::abs(res[q].region_size - ref.region_size[q]);
    total += ref.region_size[q];
    for (std::size_t r = 0; r < ref.rows.size(); ++r)
      acc.prefix_err = std::max(
          acc.prefix_err,
          std::abs(res[q].prefix_prob[static_cast<std::size_t>(ref.rows[r])] -
                   ref.prefix[q][r]));
  }
  acc.region_err = total > 0 ? static_cast<double>(diff) / static_cast<double>(total)
                             : static_cast<double>(diff);
  return acc;
}

int make_reference(const Options& o) {
  const CrdSpec* w = find_crd(o.workload);
  if (w == nullptr)
    throw std::runtime_error("--make-ref needs a crd_* workload");
  const CrdInputs in = make_crd_inputs(*w, o.quick, kRefSeed);
  const core::CrdOptions opts = reference_options(*w, o.quick);
  rt::Runtime rt(default_num_threads());
  const WallTimer timer;
  const std::vector<core::CrdResult> res = core::detect_confidence_regions(
      rt, *in.cov, in.mean, opts, in.queries);
  const i64 n = in.cov->rows();
  const std::vector<i64> rows = reference_rows(n);
  std::string s = "{\n  \"workload\": " + json_string(w->name) +
                  ",\n  \"quick\": " + (o.quick ? "true" : "false") +
                  ",\n  \"n\": " + std::to_string(n) +
                  ",\n  \"samples_per_query\": " +
                  std::to_string(opts.pmvn.total_samples()) +
                  ",\n  \"arm\": " +
                  json_string(opts.mode == core::CrdMode::kVecchia ? "vecchia"
                                                                   : "dense") +
                  ",\n  \"rows\": [";
  for (std::size_t r = 0; r < rows.size(); ++r)
    s += (r > 0 ? ", " : "") + std::to_string(rows[r]);
  s += "],\n  \"queries\": [\n";
  for (std::size_t q = 0; q < res.size(); ++q) {
    if (!res[q].status.ok())
      throw std::runtime_error("reference query failed: " + res[q].status.message);
    s += "    {\"threshold\": " + json_number(in.queries[q].threshold) +
         ", \"region_size\": " + std::to_string(res[q].region_size) +
         ", \"order_hash\": " + json_string(order_hash(res[q].order)) +
         ", \"prefix_prob\": [";
    for (std::size_t r = 0; r < rows.size(); ++r)
      s += (r > 0 ? ", " : "") +
           json_number(res[q].prefix_prob[static_cast<std::size_t>(rows[r])]);
    s += std::string("]}") + (q + 1 < res.size() ? "," : "") + "\n";
  }
  s += "  ]\n}\n";
  const std::string path = reference_path(o, w->name);
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  write_file(path, s);
  std::printf("wrote %s (%zu queries, n=%lld, %lld samples/query, %.1f s)\n",
              path.c_str(), res.size(), static_cast<long long>(n),
              static_cast<long long>(opts.pmvn.total_samples()), timer.seconds());
  return 0;
}

// ------------------------------------------------------------ probes

// Host-side probes of a traced run, each timing one public call.
struct Probes {
  double gemm_gflops = 0.0;  // single-thread la::gemm at 1024
  double phi_ns = 0.0;       // norm_cdf_diff_batch, per entry
  double phi_inv_ns = 0.0;   // norm_quantile_batch, per entry
  double order_s = 0.0;      // vecchia::maxmin_order on the workload's sites
  double neighbors_s = 0.0;  // vecchia::nearest_predecessors, m = 30
};

template <class F>
double median_time(int reps, F&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const WallTimer timer;
    fn();
    t.push_back(timer.seconds());
  }
  return median(t);
}

Probes run_probes(const la::MatrixGenerator& cov, u64 seed) {
  Probes p;
  {
    constexpr i64 kN = 1024;
    la::Matrix a(kN, kN), b(kN, kN), c(kN, kN);
    std::mt19937_64 rng(mix_seed(seed, 11));
    for (la::Matrix* m : {&a, &b})
      for (i64 i = 0; i < kN * kN; ++i) m->data()[i] = unit_uniform(rng) - 0.5;
    const double s = median_time(3, [&] {
      la::gemm(la::Trans::kNo, la::Trans::kNo, 1.0, a.view(), b.view(), 0.0,
               c.view());
    });
    p.gemm_gflops = 2.0 * static_cast<double>(kN * kN * kN) / s * 1e-9;
  }
  {
    constexpr i64 kN = 1 << 20;
    std::vector<double> x(kN), y(kN), u(kN), out(kN);
    std::mt19937_64 rng(mix_seed(seed, 12));
    for (i64 i = 0; i < kN; ++i) {
      const auto k = static_cast<std::size_t>(i);
      x[k] = 8.0 * unit_uniform(rng) - 4.0;
      y[k] = x[k] + 2.0 * unit_uniform(rng);
      u[k] = unit_uniform(rng);
    }
    p.phi_ns = median_time(3, [&] {
                 stats::norm_cdf_diff_batch(kN, x.data(), y.data(), out.data());
               }) / static_cast<double>(kN) * 1e9;
    p.phi_inv_ns = median_time(3, [&] {
                     stats::norm_quantile_batch(kN, u.data(), out.data());
                   }) / static_cast<double>(kN) * 1e9;
  }
  const std::vector<double> xy = cov.coords_xy();
  {
    const WallTimer t;
    (void)vecchia::maxmin_order(xy);
    p.order_s = t.seconds();
  }
  {
    const WallTimer t;
    (void)vecchia::nearest_predecessors(xy, 30);
    p.neighbors_s = t.seconds();
  }
  return p;
}

// EP probe: build one screener per factor and screen each query's limits.
struct EpProbe {
  double flatten_s = 0.0;  // EpScreener construction, summed over factors
  double screen_s = 0.0;   // screen(), summed over queries
  double sweeps = 0.0;     // summed over screens
  double screens = 0.0;
};

void ep_probe(EpProbe& out, const engine::CholeskyFactor& f,
              std::span<const std::vector<double>> limits) {
  const WallTimer flatten;
  ep::EpScreener screener(f.backend());
  out.flatten_s += flatten.seconds();
  const std::vector<double> b(static_cast<std::size_t>(f.dim()), kInf);
  for (const std::vector<double>& a : limits) {
    const WallTimer t;
    const ep::EpResult r = screener.screen(a, b);
    out.screen_s += t.seconds();
    out.sweeps += r.sweeps;
    out.screens += 1.0;
  }
}

// Flops one QMC sample costs in the sweep's update tasks (two GEMMs per
// (i, r) tile pair: A and B both take -Y L_ir^T; TLR forms Y V once).
double update_flops_per_sample(const engine::CholeskyFactor& f) {
  double flops = 0.0;
  for (i64 r = 0; r < f.row_tiles(); ++r)
    for (i64 i = r + 1; i < f.row_tiles(); ++i) {
      const auto mr = static_cast<double>(f.tile_rows(r));
      const auto mi = static_cast<double>(f.tile_rows(i));
      if (f.kind() == engine::FactorKind::kDense) {
        flops += 4.0 * mr * mi;
      } else if (f.kind() == engine::FactorKind::kTlr) {
        const auto k = static_cast<double>(f.tlr().lr(i, r).rank());
        flops += 2.0 * k * (mr + 2.0 * mi);
      }
    }
  return flops;
}

// ------------------------------------------------------------ crd_* runs

bool factor_task(std::string_view n) {
  return n == "generate" || n == "potrf" || n == "trsm" || n == "syrk" ||
         n == "gemm" || n.starts_with("tlr_") || n == "vecchia_fit";
}
bool sweep_task(std::string_view n) {
  return n == "pmvn_init" || n == "qmc" || n == "vecchia_qmc" ||
         n == "pmvn_update";
}

// Per-detection accounting of the traced reps, summed over reps.
struct Layers {
  int reps = 0;
  double detect_s = 0.0, factor_s = 0.0, sweep_s = 0.0;
  double union_factor = 0.0, union_sweep = 0.0;
  double busy_factor = 0.0, busy_sweep = 0.0, busy_all = 0.0;
  std::map<std::string, double, std::less<>> busy;
  double tasks = 0.0, stolen = 0.0, gemm_tasks = 0.0;
  double samples = 0.0, factors_built = 0.0, ep_retired = 0.0, queries = 0.0;
  double qmc_entries = 0.0;

  void add(std::span<const rt::TaskRecord> recs,
           const std::vector<core::CrdResult>& res, double detect, i64 n) {
    ++reps;
    detect_s += detect;
    std::vector<std::pair<double, double>> fi, si;
    for (const rt::TaskRecord& r : recs) {
      const double d = r.end_s - r.start_s;
      busy[r.name] += d;
      gemm_tasks += r.name == "gemm" ? 1.0 : 0.0;
      busy_all += d;
      tasks += 1.0;
      stolen += r.stolen ? 1.0 : 0.0;
      if (factor_task(r.name)) {
        busy_factor += d;
        fi.emplace_back(r.start_s, r.end_s);
      } else if (sweep_task(r.name)) {
        busy_sweep += d;
        si.emplace_back(r.start_s, r.end_s);
      }
    }
    union_factor += union_length(std::move(fi));
    union_sweep += union_length(std::move(si));
    for (const core::CrdResult& q : res) {
      factor_s += q.factor_seconds;
      sweep_s += q.sweep_seconds;
      factors_built += q.factor_seconds > 0.0 && !q.factor_cached ? 1.0 : 0.0;
      samples += static_cast<double>(q.samples_used);
      ep_retired += q.method == engine::EvalMethod::kEp ? 1.0 : 0.0;
      queries += 1.0;
      qmc_entries += static_cast<double>(q.samples_used) * static_cast<double>(n);
    }
  }
  [[nodiscard]] double busy_of(std::initializer_list<std::string_view> names) const {
    double s = 0.0;
    for (const std::string_view nm : names)
      if (const auto it = busy.find(nm); it != busy.end()) s += it->second;
    return s;
  }
};

// Median of the times `setup` returns, over kSetupReps calls or more.
double median_setup(const std::function<double()>& setup) {
  std::vector<double> t;
  const WallTimer total;
  while (t.size() < kSetupReps || total.seconds() < kSetupSeconds) t.push_back(setup());
  return median(t);
}

// Times `rep` until the next one would overrun `budget` seconds, but at
// least kMinReps times.
void run_reps(double budget, const std::function<double()>& rep) {
  const WallTimer timer;
  double last = 0.0;
  for (int n = 0; n < kMinReps || timer.seconds() + last <= budget; ++n)
    last = rep();
}

void put_probes(Values& m, const Probes& p) {
  m["linalg.gemm_gflops"] = p.gemm_gflops;
  m["stats.phi_ns"] = p.phi_ns;
  m["stats.phi_inv_ns"] = p.phi_inv_ns;
  m["vecchia.order_s"] = p.order_s;
  m["vecchia.neighbors_s"] = p.neighbors_s;
}

RunResult run_crd(const CrdSpec& w, const Options& o) {
  RunResult out;
  const int workers = default_num_threads();
  out.workers = workers;
  const Reference ref = read_reference(reference_path(o, w.name));

  const core::CrdOptions opts = crd_options(w, o.quick, o.seed);
  CrdInputs in;
  std::unique_ptr<engine::FactorCache> cache;
  std::vector<core::CrdResult> last;
  const auto detect = [&](rt::Runtime& r) {
    cache = std::make_unique<engine::FactorCache>(4);  // every rep factors anew
    const WallTimer timer;
    last = core::detect_confidence_regions(r, *in.cov, in.mean, opts,
                                           in.queries, cache.get());
    return timer.seconds();
  };

  // Set-up is everything before the first timed detection: inputs, the
  // runtime, and one untimed warm-up detection (first-touch pages, lazy
  // allocations).
  std::unique_ptr<rt::Runtime> rt;
  out.e2e["setup_s"] = median_setup([&] {
    rt.reset();
    const WallTimer timer;
    in = make_crd_inputs(w, o.quick, o.seed);
    rt = std::make_unique<rt::Runtime>(workers);
    (void)detect(*rt);
    return timer.seconds();
  });
  out.scheduler = scheduler_name(rt->scheduler());
  const i64 n = in.cov->rows();
  const auto nq = static_cast<i64>(in.queries.size());
  Accuracy worst;
  const auto check = [&] {
    out.attempted += nq;
    for (const core::CrdResult& q : last) out.failed += q.status.ok() ? 0 : 1;
    const Accuracy a = compare_to_reference(ref, last);
    worst.region_err = std::max(worst.region_err, a.region_err);
    worst.prefix_err = std::max(worst.prefix_err, a.prefix_err);
    worst.order_ok = worst.order_ok && a.order_ok;
  };

  std::vector<double> detect_s;
  run_reps(o.traced() ? o.seconds / 2.0 : o.seconds, [&] {
    const double s = detect(*rt);
    detect_s.push_back(s);
    check();
    return s;
  });

  const double p50 = median(detect_s);
  out.e2e["latency_p50_ms"] = p50 * 1e3;
  out.e2e["latency_p90_ms"] = percentile(detect_s, 0.9) * 1e3;
  out.e2e["throughput_per_s"] =
      static_cast<double>(nq * static_cast<i64>(detect_s.size())) /
      std::accumulate(detect_s.begin(), detect_s.end(), 0.0);

  if (o.traced()) {
    rt.reset();  // never more than `workers` runtime threads at once
    rt::Runtime traced(workers, /*enable_trace=*/true);
    Layers L;
    std::vector<double> traced_s;
    std::size_t rep_begin = 0;
    run_reps(o.seconds / 2.0, [&] {
      rep_begin = traced.trace().size();
      const double s = detect(traced);
      traced_s.push_back(s);
      check();
      const std::span<const rt::TaskRecord> recs(traced.trace());
      L.add(recs.subspan(rep_begin), last, s, n);
      return s;
    });
    std::filesystem::create_directories(o.trace_dir);
    const std::vector<rt::TaskRecord> last_rep(
        traced.trace().begin() + static_cast<std::ptrdiff_t>(rep_begin),
        traced.trace().end());
    const std::string trace_path = o.trace_dir + "/" + w.name + ".trace.json";
    rt::write_chrome_trace(last_rep, trace_path);
    out.notes.push_back("chrome trace of the last traced rep: " + trace_path);

    // Probes on the last rep's factors: a FactorCache hit per ordering, then
    // an EP screener per factor over its queries' limits.
    const std::vector<double> sd = engine::standard_deviations(*in.cov);
    std::map<std::vector<i64>, std::vector<std::size_t>> groups;
    for (std::size_t q = 0; q < last.size(); ++q) groups[last[q].order].push_back(q);
    EpProbe ep;
    double rank_sum = 0.0;
    double update_flops = 0.0;
    bool all_hits = true;
    for (const auto& [order, members] : groups) {
      bool hit = false;
      const auto f = cache->get_or_factor(traced, *in.cov, order,
                                          factor_spec(opts), sd, &hit);
      all_hits = all_hits && hit;
      std::vector<std::vector<double>> limits;
      for (const std::size_t q : members) {
        std::vector<double> a(static_cast<std::size_t>(n));
        for (i64 i = 0; i < n; ++i) {
          const auto s = static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
          a[static_cast<std::size_t>(i)] = (in.queries[q].threshold - in.mean[s]) / sd[s];
        }
        limits.push_back(std::move(a));
        update_flops += static_cast<double>(last[q].samples_used) *
                        update_flops_per_sample(*f);
      }
      ep_probe(ep, *f, limits);
      if (f->kind() == engine::FactorKind::kTlr)
        rank_sum += f->tlr().mean_offdiag_rank();
    }
    out.check(all_hits, "FactorCache::get_or_factor with CrdResult::order is a hit");
    const Probes p = run_probes(*in.cov, o.seed);

    const double r = L.reps;
    const double factor_s = L.factor_s / r, sweep_s = L.sweep_s / r;
    const double detect_mean = L.detect_s / r;
    const double engine_host =
        (L.factor_s - L.union_factor + L.sweep_s - L.union_sweep) / r;
    const double idle = (workers * L.union_factor - L.busy_factor +
                         workers * L.union_sweep - L.busy_sweep) / r +
                        workers * engine_host;
    const double core_host = detect_mean - factor_s - sweep_s;
    const double busy = L.busy_all / r;
    const double t = static_cast<double>(opts.tile);
    const double gemm_busy = L.busy_of({"gemm"}) / r;
    const double tile_gflops =
        gemm_busy > 0.0 ? L.gemm_tasks / r * 2.0 * t * t * t / gemm_busy * 1e-9
                        : 0.0;
    const double update_s = L.busy_of({"pmvn_update"}) / r;
    const double qmc_s = L.busy_of({"qmc", "vecchia_qmc"}) / r;
    const double entries = L.qmc_entries / r;
    const double overhead = median(traced_s) / p50 - 1.0;

    Values& m = out.layer;
    m["runtime.tasks"] = L.tasks / r;
    m["runtime.tasks_stolen"] = L.stolen / r;
    m["runtime.busy_frac"] = busy / (workers * (factor_s + sweep_s));
    m["runtime.idle_s"] = idle;
    m["runtime.trace_overhead"] = overhead;
    m["geo.generate_s"] = L.busy_of({"generate", "tlr_gen_diag"}) / r;
    m["tile.factor_task_s"] = L.busy_of({"potrf", "trsm", "syrk", "gemm"}) / r;
    m["tile.gemm_gflops"] = tile_gflops;
    m["tile.peak_frac"] = tile_gflops / p.gemm_gflops;
    m["tlr.compress_s"] = L.busy_of({"tlr_compress"}) / r;
    m["tlr.factor_task_s"] =
        L.busy_of({"tlr_potrf", "tlr_trsm", "tlr_syrk", "tlr_gemm"}) / r;
    m["tlr.mean_rank"] = rank_sum / static_cast<double>(groups.size());
    m["vecchia.fit_s"] = L.busy_of({"vecchia_fit"}) / r;
    m["engine.factor_s"] = factor_s;
    m["engine.sweep_s"] = sweep_s;
    m["engine.factors_built"] = L.factors_built / r;
    m["engine.init_s"] = L.busy_of({"pmvn_init"}) / r;
    m["engine.update_s"] = update_s;
    m["engine.update_gflops"] = update_s > 0.0 ? update_flops / update_s * 1e-9 : 0.0;
    m["engine.qmc_s"] = qmc_s;
    m["engine.qmc_ns_per_entry"] = entries > 0.0 ? qmc_s / entries * 1e9 : 0.0;
    m["engine.samples"] = L.samples / r;
    m["engine.host_s"] = engine_host;
    m["ep.flatten_s"] = ep.flatten_s;
    m["ep.screen_s"] = ep.screen_s;
    m["ep.retired_frac"] = L.ep_retired / L.queries;
    m["ep.sweeps"] = ep.sweeps / ep.screens;
    m["core.host_s"] = core_host;
    put_probes(m, p);

    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "identity detect_s = core.host_s + engine.factor_s + "
                  "engine.sweep_s: %.4f = %.4f + %.4f + %.4f (residual %.2e s)",
                  detect_mean, core_host, factor_s, sweep_s,
                  detect_mean - core_host - factor_s - sweep_s);
    out.notes.emplace_back(buf);
    const double lhs = workers * (factor_s + sweep_s);
    const double residual = lhs - (busy + idle);
    std::snprintf(buf, sizeof buf,
                  "identity workers x (engine.factor_s + engine.sweep_s) = "
                  "task busy + runtime.idle_s: %d x %.4f = %.4f + %.4f "
                  "(residual %.2e s, %.3f%% of workers x detect_s)",
                  workers, factor_s + sweep_s, busy, idle, residual,
                  100.0 * std::abs(residual) / (workers * detect_mean));
    out.notes.emplace_back(buf);
    out.check(std::abs(residual) <= 0.01 * workers * detect_mean,
              "identity residual within 1% of workers x detect_s");
  }

  out.e2e["peak_rss_mb"] = peak_rss_mib();

  char buf[256];
  std::snprintf(buf, sizeof buf, "region_err %.5f fraction (tolerance %.2f)",
                worst.region_err, kRegionTol);
  out.check(worst.region_err <= kRegionTol, buf);
  std::snprintf(buf, sizeof buf, "prefix_err %.5f prob (tolerance %.2f)",
                worst.prefix_err, kPrefixTol);
  out.check(worst.prefix_err <= kPrefixTol, buf);
  out.check(worst.order_ok, "ordering hash equals the reference");
  std::snprintf(buf, sizeof buf, "fail_frac %.4f (%lld of %lld queries)",
                out.attempted > 0 ? static_cast<double>(out.failed) / static_cast<double>(out.attempted) : 0.0,
                static_cast<long long>(out.failed),
                static_cast<long long>(out.attempted));
  out.check(out.failed == 0, buf);
  std::snprintf(buf, sizeof buf, "n=%lld queries=%lld reps=%zu tile=%lld",
                static_cast<long long>(n), static_cast<long long>(nq),
                detect_s.size(), static_cast<long long>(opts.tile));
  out.notes.emplace_back(buf);
  return out;
}

// ------------------------------------------------------------ serve_open

// Phase A's offered load: light enough that most requests meet an idle
// server, and (over 70% of a 20 s run) about 420 requests, the sample count
// at which p90 repeats to a few percent run to run.
constexpr double kOpenRps = 30.0;

struct ServeField {
  std::string name;
  std::shared_ptr<const geo::KernelCovGenerator> cov;
  std::vector<double> mean;
  std::vector<i64> order;  // descending bump mean
  std::vector<double> sd;
};

serve::ServeOptions serve_options() {
  serve::ServeOptions s;
  s.queue_capacity = 64;
  s.batch_window_ms = 2;
  s.max_batch = 16;
  s.engine.sampler = stats::SamplerKind::kRichtmyer;
  s.engine.samples_per_shift = 100;
  s.engine.shifts = 10;
  s.engine.adaptive = true;
  return s;
}

engine::FactorSpec serve_factor(bool quick) {
  engine::FactorSpec f;
  f.kind = engine::FactorKind::kDense;
  f.tile = quick ? 64 : 128;
  return f;
}

std::vector<ServeField> make_serve_fields(bool quick) {
  const i64 side = quick ? 16 : 32;
  const geo::LocationSet locs = geo::regular_grid(side, side);
  const auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.1);
  std::vector<double> mean = bump_mean(locs);
  std::vector<i64> order(locs.size());
  std::iota(order.begin(), order.end(), i64{0});
  std::stable_sort(order.begin(), order.end(), [&](i64 x, i64 y) {
    return mean[static_cast<std::size_t>(x)] > mean[static_cast<std::size_t>(y)];
  });
  std::vector<ServeField> fields;
  const double nuggets[] = {1e-6, 1e-4};
  for (int f = 0; f < 2; ++f) {
    ServeField sf;
    sf.name = "field" + std::to_string(f);
    sf.cov = std::make_shared<geo::KernelCovGenerator>(locs, kernel, nuggets[f]);
    sf.mean = mean;
    sf.order = order;
    sf.sd = engine::standard_deviations(*sf.cov);
    fields.push_back(std::move(sf));
  }
  return fields;
}

// a = (u - mean) / sd on the top-k ordered sites, -inf elsewhere: "do all k
// sites exceed u with probability >= 0.9".
serve::Request make_request(const ServeField& f, double u, i64 k, u64 id) {
  serve::Request r;
  r.field = f.name;
  r.a.assign(f.order.size(), -kInf);
  for (i64 i = 0; i < k; ++i) {
    const auto s = static_cast<std::size_t>(f.order[static_cast<std::size_t>(i)]);
    r.a[static_cast<std::size_t>(i)] = (u - f.mean[s]) / f.sd[s];
  }
  r.decision = 0.9;
  r.seed = id;
  return r;
}

// Request type j of the stratified mix: field j % 2, threshold (j / 2) % 16
// of the ladder, k spread evenly over [16, 272) by a golden-ratio sequence.
// Consecutive types cover the mix evenly, so every run draws the same spread
// of request types and the seed only orders them: the share of borderline
// requests, which run to the shift cap where decisive ones stop after two
// blocks, does not move p90 from seed to seed.
serve::Request mix_request(const std::vector<ServeField>& fields, u64 j, u64 id) {
  const ServeField& f = fields[j % 2];
  const double u = ladder(static_cast<int>((j / 2) % 16));
  const double golden = 0.6180339887498949 * static_cast<double>(j);
  const auto span = static_cast<double>(std::min<std::size_t>(256, f.order.size() - 16));
  const i64 k = 16 + static_cast<i64>((golden - std::floor(golden)) * span);
  return make_request(f, u, k, id);
}

struct ServeSetup {
  std::vector<ServeField> fields;
  std::unique_ptr<serve::Server> server;
};

ServeSetup make_serve(bool quick, int workers) {
  ServeSetup s;
  s.fields = make_serve_fields(quick);
  s.server = std::make_unique<serve::Server>(serve_options(), workers);
  for (const ServeField& f : s.fields)
    s.server->register_field(f.name, serve::FieldSpec{f.cov, f.order, serve_factor(quick)});
  for (const ServeField& f : s.fields) {  // factor warm-up
    const serve::Response r = s.server->evaluate(make_request(f, ladder(0), 16, 0));
    if (!r.status.ok()) throw std::runtime_error("serve warm-up failed: " + r.status.message);
  }
  return s;
}

struct Served {
  serve::Request req;
  serve::Response resp;
};

struct OpenLoop {
  std::vector<double> latency_ms;  // due time -> completion; inf if not ok
  std::vector<double> lag_ms;      // how late the generator submitted
  std::vector<Served> spot;        // first requests, for the bitwise check
  double samples = 0.0;
  i64 ok = 0;
  i64 ep = 0;
};

// Phase A: a seeded Poisson stream of the stratified mix in seeded order,
// submitted on schedule by one generator thread; one collector thread
// timestamps completions (polling the outstanding futures, so a batch-mate
// finishing early is not charged its predecessor's wait).
OpenLoop open_loop(serve::Server& server, const std::vector<ServeField>& fields,
                   u64 seed, double rps, double seconds) {
  constexpr std::size_t kSpot = 8;
  std::mt19937_64 rng(mix_seed(seed, 1));
  std::vector<double> due;
  for (double t = -std::log1p(-unit_uniform(rng)) / rps; t < seconds;
       t += -std::log1p(-unit_uniform(rng)) / rps)
    due.push_back(t);
  const std::size_t n = due.size();
  std::vector<u64> types(n);
  std::iota(types.begin(), types.end(), u64{0});
  for (std::size_t i = n; i > 1; --i) std::swap(types[i - 1], types[rng() % i]);
  std::vector<serve::Request> reqs;
  for (std::size_t i = 0; i < n; ++i) reqs.push_back(mix_request(fields, types[i], i + 1));
  OpenLoop out;
  out.latency_ms.assign(n, kInf);
  out.lag_ms.assign(n, 0.0);
  out.spot.resize(std::min(kSpot, n));
  for (std::size_t i = 0; i < out.spot.size(); ++i) out.spot[i].req = reqs[i];

  struct InFlight {
    std::size_t idx;
    std::future<serve::Response> fut;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> handoff;
  bool done = false;
  std::exception_ptr gen_error;
  const Clock::time_point t0 = Clock::now();
  const auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };

  std::jthread generator([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(due[i])));
        out.lag_ms[i] = (since(Clock::now()) - due[i]) * 1e3;
        std::future<serve::Response> fut = server.submit(std::move(reqs[i]));
        const std::lock_guard<std::mutex> lock(mu);
        handoff.push_back({i, std::move(fut)});
        cv.notify_one();
      }
    } catch (...) {
      gen_error = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  std::jthread collector([&] {
    std::vector<InFlight> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (pending.empty()) cv.wait(lock, [&] { return !handoff.empty() || done; });
        while (!handoff.empty()) {
          pending.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        if (pending.empty() && done) return;
      }
      bool any = false;
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++it;
          continue;
        }
        const double now = since(Clock::now());
        serve::Response r = it->fut.get();
        if (r.status.ok()) {
          out.latency_ms[it->idx] = (now - due[it->idx]) * 1e3;
          out.samples += static_cast<double>(r.result.samples_used);
          out.ep += r.result.method == engine::EvalMethod::kEp ? 1 : 0;
          ++out.ok;
        }
        if (it->idx < out.spot.size()) out.spot[it->idx].resp = std::move(r);
        it = pending.erase(it);
        any = true;
      }
      if (!any && !pending.empty())
        pending.front().fut.wait_for(std::chrono::microseconds(200));
    }
  });
  generator.join();
  collector.join();
  if (gen_error) std::rethrow_exception(gen_error);
  return out;
}

struct ClosedLoop {
  double rps = 0.0;
  i64 submitted = 0;
  i64 ok = 0;
  i64 ep = 0;
  double samples = 0.0;
};

// Phase B: one thread keeps `outstanding` requests of the stratified mix in
// flight, starting at a seeded point of the type sequence.
ClosedLoop closed_loop(serve::Server& server, const std::vector<ServeField>& fields,
                       u64 seed, double seconds, int outstanding) {
  const u64 first_type = mix_seed(seed, 2) % 4096;
  ClosedLoop out;
  std::deque<std::future<serve::Response>> inflight;
  const auto submit = [&] {
    const auto j = static_cast<u64>(out.submitted++);
    inflight.push_back(server.submit(mix_request(fields, first_type + j, 1'000'000 + j)));
  };
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  for (int i = 0; i < outstanding; ++i) submit();
  i64 in_window = 0;
  while (!inflight.empty()) {
    // Replace whichever request finishes first: batches of the two fields
    // complete out of submission order.
    auto it = std::find_if(inflight.begin(), inflight.end(), [](auto& f) {
      return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
    if (it == inflight.end()) {
      inflight.front().wait_for(std::chrono::microseconds(200));
      continue;
    }
    const serve::Response r = it->get();
    inflight.erase(it);
    const Clock::time_point now = Clock::now();
    if (r.status.ok()) {
      ++out.ok;
      out.samples += static_cast<double>(r.result.samples_used);
      out.ep += r.result.method == engine::EvalMethod::kEp ? 1 : 0;
      if (now <= end) ++in_window;
    }
    if (now < end) submit();
  }
  out.rps = static_cast<double>(in_window) / seconds;
  return out;
}

RunResult run_serve(const Options& o) {
  RunResult out;
  const int workers = std::max(1, default_num_threads() - 1);
  out.workers = workers;
  // Set-up: the server, both fields and their factor warm-up.
  ServeSetup s;
  out.e2e["setup_s"] = median_setup([&] {
    s = ServeSetup{};  // drains the previous server outside the timer
    const WallTimer timer;
    s = make_serve(o.quick, workers);
    return timer.seconds();
  });
  serve::Server& server = *s.server;
  out.scheduler = scheduler_name(server.runtime().scheduler());
  const serve::ServerStats s0 = server.stats();
  const i64 tasks0 = server.runtime().tasks_executed();
  const i64 stolen0 = server.runtime().tasks_stolen();

  const OpenLoop a = open_loop(server, s.fields, o.seed, kOpenRps, 0.7 * o.seconds);
  const serve::ServerStats s1 = server.stats();
  const ClosedLoop b = closed_loop(server, s.fields, o.seed, 0.25 * o.seconds, 16);
  const serve::ServerStats s2 = server.stats();
  const double tasks = static_cast<double>(server.runtime().tasks_executed() - tasks0);
  const double stolen = static_cast<double>(server.runtime().tasks_stolen() - stolen0);

  const auto na = static_cast<i64>(a.latency_ms.size());
  out.attempted = na + b.submitted;
  out.failed = out.attempted - a.ok - b.ok;
  const double completed = static_cast<double>(a.ok + b.ok);

  // Served responses at rung kNone must equal direct engine evaluation
  // bitwise (the batched==single contract extended through the server).
  int checked = 0;
  bool equal = true;
  for (const Served& sv : a.spot) {
    if (!sv.resp.status.ok() || sv.resp.degrade != serve::DegradeRung::kNone) continue;
    const ServeField& f = sv.req.field == s.fields[0].name ? s.fields[0] : s.fields[1];
    bool hit = false;
    const auto factor = server.cache().get_or_factor(
        server.runtime(), *f.cov, f.order, serve_factor(o.quick), f.sd, &hit);
    const engine::PmvnEngine eng(server.runtime(), factor, serve_options().engine);
    const std::vector<double> b_inf(f.order.size(), kInf);
    const engine::QueryResult direct = eng.evaluate_one(
        engine::LimitSet{sv.req.a, b_inf, sv.req.seed, false, sv.req.decision});
    equal = equal && hit && direct.prob == sv.resp.result.prob &&
            direct.samples_used == sv.resp.result.samples_used;
    ++checked;
  }
  out.check(checked > 0 && equal,
            std::to_string(checked) +
                " served responses equal direct engine evaluation bitwise");
  bool in_range = true;
  for (const Served& sv : a.spot)
    in_range = in_range && (!sv.resp.status.ok() ||
                            (sv.resp.result.prob >= 0.0 && sv.resp.result.prob <= 1.0));
  out.check(in_range, "served probabilities lie in [0, 1]");

  out.e2e["latency_p50_ms"] = percentile(a.latency_ms, 0.5);
  out.e2e["latency_p90_ms"] = percentile(a.latency_ms, 0.9);
  out.e2e["throughput_per_s"] = b.rps;

  if (o.traced()) {
    const ServeField& f = s.fields[0];
    bool hit = false;
    const auto factor = server.cache().get_or_factor(
        server.runtime(), *f.cov, f.order, serve_factor(o.quick), f.sd, &hit);
    out.check(hit, "FactorCache::get_or_factor on a served field is a hit");
    std::vector<std::vector<double>> limits;
    for (int k = 0; k < 16; ++k)
      limits.push_back(make_request(f, ladder(k), 144, 0).a);
    EpProbe ep;
    ep_probe(ep, *factor, limits);
    const Probes p = run_probes(*f.cov, o.seed);

    const double batches = static_cast<double>(s2.batches - s0.batches);
    const double b_batches = static_cast<double>(s2.batches - s1.batches);
    const double hits = static_cast<double>(s2.cache.hits - s0.cache.hits);
    const double misses = static_cast<double>(s2.cache.misses - s0.cache.misses);
    const double ok = std::max(completed, 1.0);
    Values& m = out.layer;
    m["runtime.tasks"] = tasks / ok;
    m["runtime.tasks_stolen"] = stolen / ok;
    m["engine.factors_built"] = misses;
    m["engine.samples"] = (a.samples + b.samples) / ok;
    m["ep.flatten_s"] = ep.flatten_s;
    m["ep.screen_s"] = ep.screen_s;
    m["ep.retired_frac"] = static_cast<double>(a.ep + b.ep) / ok;
    m["ep.sweeps"] = ep.sweeps / ep.screens;
    put_probes(m, p);
    m["serve.mean_batch"] =
        b_batches > 0.0
            ? static_cast<double>(s2.batched_queries - s1.batched_queries) / b_batches
            : 0.0;
    m["serve.batches"] = batches;
    m["serve.degraded_frac"] =
        static_cast<double>(s2.degraded_tiered + s2.degraded_shift_capped -
                            s0.degraded_tiered - s0.degraded_shift_capped) /
        std::max(batches, 1.0);
    m["serve.shed_frac"] =
        static_cast<double>(s2.rejected_overload - s0.rejected_overload) /
        std::max(static_cast<double>(s2.submitted - s0.submitted), 1.0);
    m["serve.max_queue_depth"] = static_cast<double>(s2.max_queue_depth);
    m["serve.cache_hit_rate"] = hits / std::max(hits + misses, 1.0);
    m["serve.gen_lag_p99_ms"] = percentile(a.lag_ms, 0.99);
    out.notes.emplace_back(
        "serve_open has no runtime trace (serve::Server has no trace switch); "
        "its trace-derived layer metrics read 0");
  }

  server.drain();
  out.check(server.handles_leaked() == 0, "no leaked runtime handles after drain");
  out.e2e["peak_rss_mb"] = peak_rss_mib();

  char buf[256];
  const double lag99 = percentile(a.lag_ms, 0.99);
  std::snprintf(buf, sizeof buf, "generator lag p99 %.3f ms (a phase A run is "
                "invalid above 5 ms)", lag99);
  out.notes.emplace_back(std::string(lag99 > 5.0 ? "WARN " : "ok   ") + buf);
  // The highest percentile with at least ten samples beyond it.
  const double tail_p =
      std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(std::max<i64>(na, 10)))) / 100.0;
  std::snprintf(buf, sizeof buf,
                "phase A: %lld requests at %.0f rps, p%.0f %.3f ms, mean batch %.2f",
                static_cast<long long>(na), kOpenRps, tail_p * 100.0,
                percentile(a.latency_ms, tail_p),
                s1.batches > s0.batches
                    ? static_cast<double>(s1.batched_queries - s0.batched_queries) /
                          static_cast<double>(s1.batches - s0.batches)
                    : 0.0);
  out.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "phase B: %lld requests, 16 outstanding, %.2f rps",
                static_cast<long long>(b.submitted), b.rps);
  out.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "fail_frac %.4f (%lld of %lld requests)",
                static_cast<double>(out.failed) / static_cast<double>(out.attempted),
                static_cast<long long>(out.failed),
                static_cast<long long>(out.attempted));
  out.check(out.failed == 0, buf);
  return out;
}

// ------------------------------------------------------------ entry points

RunResult run_workload(const std::string& name, const Options& o) {
  if (const CrdSpec* w = find_crd(name)) return run_crd(*w, o);
  if (name == "serve_open") return run_serve(o);
  throw std::runtime_error("unknown workload '" + name +
                           "' (crd_dense, crd_tlr, crd_vecchia, serve_open)");
}

// The end-to-end metrics, then (traced runs) the per-layer ones.
Metrics all_metrics(const Options& o, const RunResult& r) {
  Metrics all = to_metrics(kEndToEnd, r.e2e);
  if (o.traced()) {
    const Metrics layer = to_metrics(kPerLayer, r.layer);
    all.insert(all.end(), layer.begin(), layer.end());
  }
  return all;
}

std::string record_json(const Options& o, const std::string& workload,
                        const RunResult& r) {
  return "{\"workload\": " + json_string(workload) +
         ", \"seed\": " + std::to_string(o.seed) +
         ", \"seconds\": " + json_number(o.seconds) +
         ", \"quick\": " + (o.quick ? "true" : "false") +
         ", \"traced\": " + (o.traced() ? "true" : "false") +
         ", \"host\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + json_string(cpu_model()) +
         ", \"norm_batch_vectorized\": " +
         (stats::norm_batch_vectorized() ? "true" : "false") +
         ", \"scheduler\": " + json_string(r.scheduler) +
         ", \"workers\": " + std::to_string(r.workers) +
         ", \"build_type\": " + json_string(PARMVN_E2E_BUILD_TYPE) + "}" +
         ", \"correct\": " + (r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + metrics_json(all_metrics(o, r)) + "}";
}

int run_one(const Options& o) {
  const RunResult r = run_workload(o.workload, o);
  std::printf("# bench_e2e %s seed=%llu seconds=%g workers=%d scheduler=%s "
              "vectorized=%d build=%s%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, r.workers, r.scheduler.c_str(),
              stats::norm_batch_vectorized() ? 1 : 0, PARMVN_E2E_BUILD_TYPE,
              o.quick ? " quick" : "");
  for (const Metric& m : all_metrics(o, r))
    std::printf("%-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  if (!o.json_path.empty()) write_file(o.json_path, record_json(o, o.workload, r) + "\n");
  const Metrics reported =
      o.traced() ? to_metrics(kPerLayer, r.layer) : to_metrics(kEndToEnd, r.e2e);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              r.correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), metrics_json(reported).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

// --compare: one row per (workload, end-to-end metric) of BENCHMARK.json.
int compare_results(const Options& o) {
  const Json bench = read_json(benchmark_path());
  const Json base = read_json(o.compare[0]);
  const Json cand = read_json(o.compare[1]);
  const auto values = [](const Json& results, const std::string& w,
                         const std::string& m) {
    std::vector<double> v;
    for (const Json& run : results.at("runs").array) {
      if (run.at("workload").string != w) continue;
      if (const Json* x = run.at("metrics").find(m)) v.push_back(x->at("value").number);
    }
    return v;
  };
  const auto spread = [](const std::vector<double>& v) {
    const auto [q1, q3] = quartiles(v);
    const double med = median(v);
    return med != 0.0 ? (q3 - q1) / std::abs(med) : 0.0;
  };
  std::printf("%-12s %-17s %13s %13s %8s %6s %7s %7s  %s\n", "workload", "metric",
              "base", "new", "change", "bound", "spr_b", "spr_n", "verdict");
  int worse = 0;
  for (const Json& wj : bench.at("workloads").array) {
    const std::string& w = wj.at("name").string;
    for (const Json& mj : bench.at("end_to_end").array) {
      const std::string& m = mj.at("name").string;
      const double bound = mj.at("bound").number;
      const bool higher = mj.at("better").string == "higher";
      const std::vector<double> bv = values(base, w, m);
      const std::vector<double> nv = values(cand, w, m);
      if (bv.empty() || nv.empty()) {
        std::printf("%-12s %-17s %13s %13s %8s %6.2f %7s %7s  missing\n", w.c_str(),
                    m.c_str(), "-", "-", "-", bound, "-", "-");
        ++worse;
        continue;
      }
      const double bm = median(bv);
      const double nm = median(nv);
      // Positive = worse, as a share of the base median.
      const double change = (higher ? bm - nm : nm - bm) / std::abs(bm);
      const double sb = spread(bv);
      const double sn = spread(nv);
      const auto better_all = [&] {
        for (const double x : nv)
          for (const double y : bv)
            if (higher ? !(x > y) : !(x < y)) return false;
        return true;
      };
      const char* verdict = "same";
      if (std::max(sb, sn) > bound) {
        verdict = better_all() ? "better" : "unresolved";
      } else if (change > bound) {
        verdict = "worse";
        ++worse;
      } else if (change < -bound) {
        verdict = "better";
      }
      std::printf("%-12s %-17s %13.6g %13.6g %+7.2f%% %6.2f %7.3f %7.3f  %s\n",
                  w.c_str(), m.c_str(), bm, nm, 100.0 * change, bound, sb, sn, verdict);
    }
  }
  return worse == 0 ? 0 : 1;
}

// --smoke: checks that BENCHMARK.json names exactly the metrics (and units)
// this program reports, then runs every workload at --quick size, traced,
// in this process; fails on a mismatch, a non-finite metric or a failed
// correctness check.
int smoke(Options o) {
  const Json bench = read_json(benchmark_path());
  bool ok = true;
  const auto same_list = [&](const char* list, std::span<const MetricDef> defs) {
    const std::vector<Json>& want = bench.at(list).array;
    bool same = want.size() == defs.size();
    for (std::size_t i = 0; same && i < defs.size(); ++i)
      same = want[i].at("name").string == defs[i].name &&
             want[i].at("unit").string == defs[i].unit;
    if (!same) std::printf("BENCHMARK.json %s differs from the metric table\n", list);
    ok = ok && same;
  };
  same_list("end_to_end", kEndToEnd);
  same_list("per_layer", kPerLayer);

  o.quick = true;
  o.seconds = 1.0;
  if (o.trace_dir.empty()) o.trace_dir = "bench_e2e_smoke_traces";
  for (const Json& wj : bench.at("workloads").array) {
    const std::string& w = wj.at("name").string;
    const WallTimer timer;
    const RunResult r = run_workload(w, o);
    for (const std::string& note : r.notes)
      if (note.rfind("FAIL", 0) == 0) std::printf("%s: %s\n", w.c_str(), note.c_str());
    bool finite = true;
    for (const Metric& m : all_metrics(o, r)) finite = finite && std::isfinite(m.value);
    ok = ok && r.correct && finite;
    std::printf("%-12s %s in %.1f s\n", w.c_str(),
                r.correct && finite ? "ok" : "FAILED", timer.seconds());
  }
  std::printf("bench_e2e smoke: %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_options(argc, argv);
    if (!o.compare.empty()) return compare_results(o);
    if (o.smoke) return smoke(o);
    if (o.workload.empty()) throw std::runtime_error("--workload=<name> is required");
    if (o.make_ref) return make_reference(o);
    return run_one(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
