#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "common/fault.hpp"
#include "engine/cholesky_factor.hpp"

namespace parmvn::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using std::chrono::duration_cast;
using std::chrono::milliseconds;

}  // namespace

void ServeOptions::validate() const {
  const auto reject = [](const std::string& what) {
    throw Error("ServeOptions: " + what);
  };
  if (queue_capacity < 1) reject("queue_capacity must be >= 1");
  if (batch_window_ms < 0) reject("batch_window_ms must be >= 0");
  if (max_batch < 1) reject("max_batch must be >= 1");
  if (cache_capacity < 1) reject("cache_capacity must be >= 1");
  if (max_retries < 0) reject("max_retries must be >= 0");
  if (retry_backoff_ms < 0) reject("retry_backoff_ms must be >= 0");
  if (breaker_threshold < 1) reject("breaker_threshold must be >= 1");
  if (breaker_cooldown_ms < 0) reject("breaker_cooldown_ms must be >= 0");
  if (!(degrade_tiered_at > 0.0) || !(degrade_tiered_at <= degrade_shift_cap_at) ||
      !(degrade_shift_cap_at <= 1.0))
    reject(
        "degradation thresholds must satisfy "
        "0 < degrade_tiered_at <= degrade_shift_cap_at <= 1");
  if (degraded_shifts < 2)
    reject("degraded_shifts must be >= 2 (a lone shift block has no error "
           "estimate)");
  engine.validate();
}

Server::Server(ServeOptions opts, int runtime_threads)
    : opts_(std::move(opts)) {
  PARMVN_EXPECTS(runtime_threads >= 0);
  opts_.validate();
  rt_ = std::make_unique<rt::Runtime>(runtime_threads);
  cache_ = std::make_unique<engine::FactorCache>(opts_.cache_capacity);
  executor_ = std::thread([this] { execute_loop(); });
  try {
    dispatcher_ = std::thread([this] { dispatch_loop(); });
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      dispatcher_done_ = true;
    }
    exec_cv_.notify_one();
    executor_.join();
    throw;
  }
}

Server::~Server() { drain(); }

void Server::register_field(const std::string& name, FieldSpec spec) {
  PARMVN_EXPECTS(spec.cov != nullptr);
  const i64 n = spec.cov->rows();
  PARMVN_EXPECTS(spec.cov->cols() == n);
  if (!spec.order.empty() && static_cast<i64>(spec.order.size()) != n)
    throw Error("serve: field '" + name + "': order length does not match n");
  // Standardisation fails typed here (a non-positive covariance diagonal),
  // not on the first request that routes to the field.
  std::vector<double> sd = engine::standard_deviations(*spec.cov);
  std::vector<i64> order = spec.order;
  if (order.empty()) {
    order.resize(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), i64{0});
  }
  auto field = std::make_unique<Field>(
      std::move(spec), std::move(sd), std::move(order), opts_.breaker_threshold,
      milliseconds(opts_.breaker_cooldown_ms));
  const std::lock_guard<std::mutex> lock(fields_mu_);
  if (fields_.contains(name))
    throw Error("serve: field '" + name + "' is already registered");
  fields_.emplace(name, std::move(field));
}

std::future<Response> Server::submit(Request req) {
  std::promise<Response> promise;
  std::future<Response> fut = promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++counters_.submitted;
  }
  // Fulfill the promise immediately with a typed rejection (the request
  // was never admitted, so this is the one response it gets).
  const auto reject = [&](Status status, i64 ServerStats::* counter,
                          bool breaker = false) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++(counters_.*counter);
    }
    Response r;
    r.status = std::move(status);
    r.breaker_open = breaker;
    promise.set_value(std::move(r));
  };

  // ---- request validation (typed, before admission)
  Field* field = nullptr;
  {
    const std::lock_guard<std::mutex> lock(fields_mu_);
    if (const auto it = fields_.find(req.field); it != fields_.end())
      field = it->second.get();
  }
  if (field == nullptr) {
    reject(Status::invalid_argument("serve: unknown field '" + req.field + "'"),
           &ServerStats::rejected_invalid);
    return fut;
  }
  const i64 n = field->spec.cov->rows();
  if (static_cast<i64>(req.a.size()) != n ||
      (!req.b.empty() && req.b.size() != req.a.size()) || req.deadline_ms < 0) {
    reject(Status::invalid_argument(
               "serve: malformed request (limit lengths or deadline)"),
           &ServerStats::rejected_invalid);
    return fut;
  }
  const auto is_nan = [](double v) { return std::isnan(v); };
  if (std::any_of(req.a.begin(), req.a.end(), is_nan) ||
      std::any_of(req.b.begin(), req.b.end(), is_nan)) {
    reject(Status::invalid_argument("serve: NaN integration limit"),
           &ServerStats::rejected_invalid);
    return fut;
  }

  // ---- circuit breaker: fail doomed fields fast, before they cost a
  // queue slot or another factor attempt
  if (!field->breaker.allow()) {
    reject(Status::factor_failed("serve: circuit breaker open for field '" +
                                 req.field + "'"),
           &ServerStats::rejected_breaker, /*breaker=*/true);
    return fut;
  }

  // ---- admission (fault-injectable; a tripped admit still yields exactly
  // one typed response)
  try {
    PARMVN_FAULT_POINT("serve.admit");
  } catch (const Error& e) {
    reject(Status::eval_failed(e.what()), &ServerStats::rejected_admit_fault);
    return fut;
  }

  bool admitted = false;
  bool draining = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    draining = draining_;
    if (!draining_ && queue_.size() < opts_.queue_capacity) {
      Pending p;
      p.field = field;
      p.req = std::move(req);
      p.promise = std::move(promise);
      p.arrival = Clock::now();
      queue_.push_back(std::move(p));
      ++counters_.admitted;
      counters_.max_queue_depth = std::max(
          counters_.max_queue_depth, static_cast<i64>(queue_.size()));
      admitted = true;
    }
  }
  if (admitted) {
    cv_.notify_one();
    return fut;
  }
  reject(Status::overloaded(draining ? "serve: draining, admission closed"
                                     : "serve: admission queue full"),
         &ServerStats::rejected_overload);
  return fut;
}

Response Server::evaluate(Request req) { return submit(std::move(req)).get(); }

void Server::dispatch_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return !queue_.empty() || draining_; });
    if (queue_.empty()) break;  // draining, and nothing left to hand over

    // Open a batch with the oldest request; (field, has-deadline) is the
    // coalescing key. Splitting on deadline presence keeps a neighbour's
    // budget from imposing an engine deadline on budget-free requests.
    std::vector<Pending> batch;
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
    Field* const key_field = batch.front().field;
    const bool key_deadline = batch.front().req.deadline_ms > 0;
    const auto full = [&] {
      return static_cast<int>(batch.size()) >= opts_.max_batch;
    };
    const auto take = [&] {
      for (auto it = queue_.begin(); it != queue_.end() && !full();) {
        if (it->field == key_field &&
            (it->req.deadline_ms > 0) == key_deadline) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    };

    // Draining must not dawdle on the coalescing window — the queue is
    // finite and admission closed, so just take what is there.
    const auto window_end =
        Clock::now() + milliseconds(opts_.batch_window_ms);
    take();
    while (!full() && !draining_ && opts_.batch_window_ms > 0 &&
           Clock::now() < window_end) {
      cv_.wait_until(lk, window_end);
      take();
    }
    // A batch the executor cannot start yet stays open: it keeps taking
    // same-key requests until the executor frees up.
    const bool pipelined = executor_busy_;
    while (executor_busy_) {
      cv_.wait(lk);
      take();
    }

    handoff_ = Batch{std::move(batch), queue_.size(), pipelined};
    executor_busy_ = true;
    exec_cv_.notify_one();
  }
  dispatcher_done_ = true;
  exec_cv_.notify_one();
}

void Server::execute_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    exec_cv_.wait(lk, [&] { return handoff_.has_value() || dispatcher_done_; });
    if (!handoff_) return;
    Batch batch = std::move(*handoff_);
    handoff_.reset();
    lk.unlock();
    process_batch(std::move(batch));
    lk.lock();
    executor_busy_ = false;
    cv_.notify_one();
  }
}

std::vector<Server::Pending> Server::retire_expired(std::vector<Pending> batch,
                                                    Clock::time_point now) {
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (Pending& p : batch) {
    if (p.req.deadline_ms > 0 &&
        now - p.arrival >= milliseconds(p.req.deadline_ms)) {
      Response r;
      r.status = Status::deadline("serve: deadline expired in queue");
      respond(p, std::move(r));
    } else {
      live.push_back(std::move(p));
    }
  }
  return live;
}

void Server::process_batch(Batch formed) {
  // Requests that spent their whole budget queued retire right here with
  // Status::kDeadline — the engine never sees them.
  std::vector<Pending> batch =
      retire_expired(std::move(formed.members), Clock::now());
  if (batch.empty()) return;
  Field* const field = batch.front().field;

  // ---- degradation rung from queue pressure at batch close
  DegradeRung rung = DegradeRung::kNone;
  const double cap = static_cast<double>(opts_.queue_capacity);
  const auto depth = static_cast<double>(formed.depth_at_close);
  if (depth >= opts_.degrade_shift_cap_at * cap)
    rung = DegradeRung::kShiftCap;
  else if (depth >= opts_.degrade_tiered_at * cap)
    rung = DegradeRung::kTiered;

  engine::EngineOptions eff = opts_.engine;
  if (rung >= DegradeRung::kTiered) eff.tiered = true;
  if (rung == DegradeRung::kShiftCap) {
    eff.shifts = std::min(eff.shifts, opts_.degraded_shifts);
    if (eff.adaptive) eff.min_shifts = std::min(eff.min_shifts, eff.shifts);
  }

  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++counters_.batches;
    if (formed.pipelined) ++counters_.pipelined_batches;
    counters_.batched_queries += static_cast<i64>(batch.size());
    counters_.max_batch_size = std::max(counters_.max_batch_size,
                                        static_cast<i64>(batch.size()));
    if (rung == DegradeRung::kTiered) ++counters_.degraded_tiered;
    if (rung == DegradeRung::kShiftCap) ++counters_.degraded_shift_capped;
  }

  int attempt = 0;
  for (;;) {
    // Deadlines are re-checked at every attempt (a backoff sleep may have
    // consumed a member's whole budget) and the engine deadline is the
    // batch's tightest remaining budget, recomputed now — not at admission.
    const auto now = Clock::now();
    batch = retire_expired(std::move(batch), now);
    if (batch.empty()) return;
    i64 engine_deadline = 0;
    for (const Pending& p : batch) {
      if (p.req.deadline_ms <= 0) continue;
      const i64 remaining =
          p.req.deadline_ms - duration_cast<milliseconds>(now - p.arrival).count();
      const i64 rem = std::max<i64>(remaining, 1);
      engine_deadline = engine_deadline == 0 ? rem : std::min(engine_deadline, rem);
    }
    eff.deadline_ms = engine_deadline;

    const auto fail_batch = [&](Status status) {
      for (Pending& p : batch) {
        Response r;
        r.status = status;
        r.degrade = rung;
        r.retries = attempt;
        respond(p, std::move(r));
      }
    };

    // ---- factor (served from the cache; failures feed the breaker)
    std::shared_ptr<const engine::CholeskyFactor> factor;
    try {
      bool cached = false;
      factor = cache_->get_or_factor(*rt_, *field->spec.cov, field->order,
                                     field->spec.factor, field->sd, &cached);
      field->breaker.record_success();
    } catch (const std::exception& e) {
      if (field->breaker.record_failure()) {
        const std::lock_guard<std::mutex> lock(mu_);
        ++counters_.breaker_trips;
      }
      if (attempt >= opts_.max_retries) {
        fail_batch(Status::factor_failed(e.what()));
        return;
      }
      backoff_sleep(++attempt);
      continue;
    }

    // ---- fused evaluation, scattered back per request
    try {
      PARMVN_FAULT_POINT("serve.batch");
      const i64 n = field->spec.cov->rows();
      const std::vector<double> b_inf(static_cast<std::size_t>(n), kInf);
      std::vector<engine::LimitSet> limits;
      limits.reserve(batch.size());
      for (const Pending& p : batch) {
        const std::span<const double> b =
            p.req.b.empty() ? std::span<const double>(b_inf)
                            : std::span<const double>(p.req.b);
        limits.push_back(engine::LimitSet{p.req.a, b, p.req.seed, p.req.prefix,
                                          p.req.decision});
      }
      const engine::PmvnEngine eng(*rt_, factor, eff);
      std::vector<engine::QueryResult> results = eng.evaluate(limits);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        Response r;
        r.result = std::move(results[i]);
        r.degrade = rung;
        r.retries = attempt;
        respond(batch[i], std::move(r));
      }
      return;
    } catch (const std::exception& e) {
      if (attempt >= opts_.max_retries) {
        fail_batch(Status::eval_failed(e.what()));
        return;
      }
      backoff_sleep(++attempt);
    }
  }
}

void Server::backoff_sleep(int attempt) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++counters_.retries;
  }
  if (opts_.retry_backoff_ms <= 0) return;
  // Exponential base with multiplicative jitter in [0.5, 1.5), capped so a
  // deep retry ladder cannot stall the executor for long.
  const double base = static_cast<double>(opts_.retry_backoff_ms) *
                      static_cast<double>(i64{1} << std::min(attempt - 1, 10));
  std::uniform_real_distribution<double> jitter(0.5, 1.5);
  const double ms = std::min(base * jitter(backoff_rng_), 100.0);
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(ms));
}

void Server::respond(Pending& p, Response r) {
  try {
    PARMVN_FAULT_POINT("serve.respond");
  } catch (const Error& e) {
    // The response path itself failed. The one thing the server must never
    // do is lose an admitted request, so the response degrades to a typed
    // failure and is still delivered.
    Response failed;
    failed.status = Status::eval_failed(e.what());
    failed.degrade = r.degrade;
    failed.retries = r.retries;
    r = std::move(failed);
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    switch (r.status.code) {
      case StatusCode::kOk:
        ++counters_.completed_ok;
        break;
      case StatusCode::kDeadline:
        ++counters_.expired_in_queue;
        break;
      default:
        ++counters_.failed;
        break;
    }
  }
  p.promise.set_value(std::move(r));
}

void Server::drain() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
  // Serialise concurrent drain() calls around the joins themselves. The
  // dispatcher ends first (nothing left to hand over); the executor then
  // finishes the last handed-off batch and ends too.
  {
    const std::lock_guard<std::mutex> lock(drain_mu_);
    if (dispatcher_.joinable()) dispatcher_.join();
    if (executor_.joinable()) executor_.join();
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    s = counters_;
    s.queue_depth = queue_.size();
    s.draining = draining_;
  }
  s.cache = cache_->stats();
  s.handles_leaked = rt_->handles_leaked();
  return s;
}

i64 Server::handles_leaked() const noexcept { return rt_->handles_leaked(); }

}  // namespace parmvn::serve
