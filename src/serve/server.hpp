// parmvn serve — a resilient, long-lived, multi-tenant serving loop over
// the factor-once / evaluate-many engine.
//
// The traffic shape this serves is the confidence-region detector's: each
// user request is a boundary bisection emitting dozens-to-hundreds of
// correlated probability queries against one field (one ordering, one
// cached factor). The server composes the primitives the lower layers
// already provide — thread-safe FactorCache, fused PmvnEngine batches,
// deadlines, the jitter/fallback factor ladder, typed Status — into one
// loop with the robustness properties a server actually needs:
//
//  * bounded admission queue with backpressure — submits beyond
//    queue_capacity are rejected with Status::kOverloaded; an admitted
//    request is never silently dropped (exactly one typed response each,
//    enforced down to injected respond-path faults);
//  * dynamic batching — concurrent queries against the same field coalesce
//    under a latency budget (batch_window_ms / max_batch) into one fused
//    engine batch on a cached factor; responses scatter back per request
//    and are bitwise equal to evaluating the same query directly against
//    the engine (the batched==single contract, extended through serving);
//  * per-request deadlines — the remaining budget is recomputed at dequeue
//    time and propagated onto EngineOptions::deadline_ms; a request that
//    already expired in the queue retires with Status::kDeadline before
//    touching the engine;
//  * retry with jittered backoff for transient factor failures, riding the
//    FactorSpec jitter/fallback ladder, plus a per-field circuit breaker
//    that fails fast after repeated factor failures;
//  * an overload degradation ladder — under queue pressure the server
//    first forces tiered EP screening, then caps the QMC shift budget, and
//    only then sheds at admission; every response reports its rung;
//  * graceful drain — shutdown stops admission, lets the executor finish
//    the batch it runs, completes or deadline-retires everything else
//    admitted, joins both server threads and asserts zero leaked runtime
//    handles.
//
// Concurrency model: client threads call submit() (or the blocking
// evaluate()) from anywhere. Two server threads form a pipeline: the
// dispatcher only forms batches, and the executor runs them, one at a
// time, on the server's own Runtime + FactorCache. While the executor runs
// batch k the dispatcher forms batch k+1: after its window it keeps
// taking same-key requests until the executor frees up or the batch is
// full, and hands it over the moment the executor is idle. Only the
// dispatcher forms batches, so a window's requests never split between
// two formers. Engine entry points serialise their epochs through
// Runtime::exclusive_epoch(), so external callers may additionally share
// the server's runtime.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/factor_cache.hpp"
#include "runtime/runtime.hpp"
#include "serve/breaker.hpp"
#include "serve/request.hpp"

namespace parmvn::serve {

/// A served field: the covariance model, the (fixed) ordering requests are
/// expressed in, and how to factor it. The factor arm's robustness knobs
/// (FactorSpec::jitter_retries / fallback) ride along, so per-field
/// degradation policy is part of registration.
struct FieldSpec {
  std::shared_ptr<const la::MatrixGenerator> cov;
  /// Permutation mapping request limits into factor order; empty =
  /// identity. Typically the marginal ordering of the field's thresholds.
  std::vector<i64> order;
  engine::FactorSpec factor;
};

class Server {
 public:
  /// Validates `opts` (typed errors), builds the serving Runtime (with
  /// `runtime_threads` workers) and the FactorCache, and starts the
  /// executor and dispatcher threads.
  explicit Server(ServeOptions opts, int runtime_threads = 2);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Drains (see drain()) if the caller has not already.
  ~Server();

  /// Register a field. Computes and stores the standardisation vector
  /// eagerly, so a bad covariance diagonal fails here, typed, not
  /// mid-traffic. Re-registering a live name throws (replacement under
  /// in-flight requests is not supported).
  void register_field(const std::string& name, FieldSpec spec);

  /// Admission: validate, consult the field's circuit breaker, then try to
  /// enqueue. Never blocks on the queue — a full queue (or a draining
  /// server) rejects immediately with Status::kOverloaded. The returned
  /// future always yields exactly one Response.
  [[nodiscard]] std::future<Response> submit(Request req);

  /// Blocking convenience: submit and wait.
  [[nodiscard]] Response evaluate(Request req);

  /// Graceful shutdown: stop admission (subsequent submits are rejected
  /// kOverloaded), let the executor finish the batch it runs and the
  /// dispatcher hand over every admitted request still queued (each one
  /// completes or deadline-retires), then join both threads. Idempotent;
  /// called by the destructor.
  void drain();

  [[nodiscard]] ServerStats stats() const;

  /// Handle slots the serving runtime could not reclaim — the drain
  /// contract is that this is zero after drain().
  [[nodiscard]] i64 handles_leaked() const noexcept;

  [[nodiscard]] const ServeOptions& options() const noexcept { return opts_; }
  [[nodiscard]] rt::Runtime& runtime() noexcept { return *rt_; }
  [[nodiscard]] engine::FactorCache& cache() noexcept { return *cache_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Field {
    FieldSpec spec;
    std::vector<double> sd;   // standardisation vector (original indexing)
    std::vector<i64> order;   // resolved (identity when spec.order empty)
    CircuitBreaker breaker;
    Field(FieldSpec s, std::vector<double> sd_arg, std::vector<i64> ord,
          int threshold, std::chrono::milliseconds cooldown)
        : spec(std::move(s)), sd(std::move(sd_arg)), order(std::move(ord)),
          breaker(threshold, cooldown) {}
  };

  /// One admitted request waiting in the queue.
  struct Pending {
    Field* field = nullptr;
    Request req;
    std::promise<Response> promise;
    Clock::time_point arrival;
  };

  /// A formed batch on its way from the dispatcher to the executor.
  struct Batch {
    std::vector<Pending> members;
    std::size_t depth_at_close = 0;  // queue depth at handoff
    bool pipelined = false;  // closed while another batch was evaluating
  };

  void dispatch_loop();
  void execute_loop();
  void process_batch(Batch batch);
  /// Deliver exactly one response (counting it), absorbing respond-path
  /// faults into a typed failure rather than a lost request.
  void respond(Pending& p, Response r);
  /// Members whose deadline already passed retire with Status::kDeadline;
  /// returns the still-live ones.
  std::vector<Pending> retire_expired(std::vector<Pending> batch,
                                      Clock::time_point now);
  /// Count a retry and sleep the jittered exponential backoff for this
  /// (1-based) attempt. Executor thread only.
  void backoff_sleep(int attempt);

  ServeOptions opts_;
  std::unique_ptr<rt::Runtime> rt_;
  std::unique_ptr<engine::FactorCache> cache_;

  mutable std::mutex mu_;  // queue + handoff + counters + flags below
  std::condition_variable cv_;       // producers, executor -> dispatcher
  std::condition_variable exec_cv_;  // dispatcher -> executor
  std::deque<Pending> queue_;
  std::optional<Batch> handoff_;  // formed, not yet taken by the executor
  bool executor_busy_ = false;    // a batch is handed off or evaluating
  bool dispatcher_done_ = false;  // drained: no further handoffs
  bool draining_ = false;
  ServerStats counters_;          // cache/queue_depth/… filled by stats()

  mutable std::mutex fields_mu_;
  std::unordered_map<std::string, std::unique_ptr<Field>> fields_;

  std::mt19937_64 backoff_rng_{0x5eedf00d};  // executor-only (jitter)
  std::mutex drain_mu_;  // serialises concurrent drain() joins
  std::thread executor_;
  std::thread dispatcher_;
};

}  // namespace parmvn::serve
