// Serving vocabulary: requests, typed responses, server options and the
// stats/health report.
//
// A request is one probability query — integration limits in a registered
// field's (ordered, standardised) space, exactly an engine::LimitSet plus
// routing (`field`) and a per-request wall-clock budget (`deadline_ms`).
// The response carries a typed Status (admission rejection, queue-expired
// deadline, factor/eval failure) alongside the engine result, plus the
// degradation rung the serving batch ran at, so clients can always see
// *why* an answer is partial or missing. Every admitted request receives
// exactly one response; the server never silently drops work.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "engine/factor_cache.hpp"
#include "engine/pmvn_engine.hpp"

namespace parmvn::serve {

/// Overload degradation rung a batch was evaluated at (reported in every
/// response of the batch, so degradation is observable, never silent).
/// Rungs are ordered: each one includes everything milder than it.
///  * kNone     — queue pressure below every threshold; the configured
///                EngineOptions run unmodified.
///  * kTiered   — queue depth crossed ServeOptions::degrade_tiered_at:
///                the EP screening tier is forced on, so decision-bearing
///                queries the cheap estimator can decide spend no QMC
///                samples at all.
///  * kShiftCap — depth crossed ServeOptions::degrade_shift_cap_at: the
///                QMC shift budget is additionally capped at
///                ServeOptions::degraded_shifts (wider error bars, same
///                estimator). Beyond this rung the only lever left is
///                shedding at admission (Status::kOverloaded).
enum class DegradeRung { kNone = 0, kTiered = 1, kShiftCap = 2 };

[[nodiscard]] constexpr const char* to_string(DegradeRung r) noexcept {
  switch (r) {
    case DegradeRung::kNone: return "none";
    case DegradeRung::kTiered: return "tiered";
    case DegradeRung::kShiftCap: return "shift_cap";
  }
  return "unknown";
}

/// One serving request: a probability query against a registered field.
struct Request {
  std::string field;      // registered field name (routing key)
  std::vector<double> a;  // lower limits, ordered space, length n
  /// Upper limits; empty means +inf everywhere (the excursion-set shape).
  std::vector<double> b;
  u64 seed = 42;
  bool prefix = false;    // also return all prefix probabilities
  /// Decision threshold (see engine::LimitSet::decision); NaN = none.
  double decision = std::numeric_limits<double>::quiet_NaN();
  /// Wall-clock budget in ms from admission (0 = none). Still queued when
  /// it expires -> Status::kDeadline without touching the engine; expiring
  /// mid-sweep -> kOk with EvalMethod::kDeadline and a partial estimate.
  i64 deadline_ms = 0;
};

/// One typed response per request — always exactly one, whatever happened.
struct Response {
  Status status;
  /// Valid when status.ok(); untouched otherwise.
  engine::QueryResult result;
  /// Degradation rung of the batch this request was evaluated in (kNone
  /// for requests rejected before evaluation).
  DegradeRung degrade = DegradeRung::kNone;
  /// Transient-failure retries the serving batch spent before this
  /// response (factor or evaluation attempts beyond the first).
  int retries = 0;
  /// The request was rejected fast by the per-field circuit breaker
  /// (status is then kFactorFailed without a new factor attempt).
  bool breaker_open = false;
};

struct ServeOptions {
  /// Bounded admission queue: submits beyond this depth are rejected with
  /// Status::kOverloaded (backpressure, never unbounded growth).
  std::size_t queue_capacity = 64;
  /// Dynamic-batching latency budget: an open batch waits up to this long
  /// (wall clock) for more same-field requests before evaluating. 0 = no
  /// coalescing wait (each batch takes only what is already queued). A
  /// batch may stay open past the window while the previous batch still
  /// runs, since it could not start earlier; it keeps taking same-key
  /// requests (up to max_batch) until the executor frees up.
  i64 batch_window_ms = 2;
  /// Most requests fused into one engine batch.
  int max_batch = 16;
  /// Base evaluation options (validated; per-batch degradation may force
  /// `tiered` on or cap `shifts` — see DegradeRung).
  engine::EngineOptions engine;
  /// Factors cached per server (LRU entries).
  std::size_t cache_capacity = 4;

  /// Transient-failure retries per batch (factor or evaluation), with
  /// jittered exponential backoff starting at retry_backoff_ms.
  int max_retries = 2;
  i64 retry_backoff_ms = 1;

  /// Per-field circuit breaker: this many *consecutive* factor failures
  /// open it; while open, requests for the field fail fast with
  /// kFactorFailed (breaker_open = true) instead of re-queueing doomed
  /// work. After breaker_cooldown_ms the next request probes again
  /// (half-open); success closes the breaker, failure re-opens it.
  int breaker_threshold = 3;
  i64 breaker_cooldown_ms = 250;

  /// Overload degradation ladder, as fractions of queue_capacity: queue
  /// depth at batch close (read when the batch is handed to the executor)
  /// >= degrade_tiered_at * capacity forces the EP tier
  /// (DegradeRung::kTiered); >= degrade_shift_cap_at * capacity
  /// additionally caps shifts at degraded_shifts (DegradeRung::kShiftCap).
  double degrade_tiered_at = 0.5;
  double degrade_shift_cap_at = 0.75;
  int degraded_shifts = 2;

  /// Range-check every knob; throws a typed parmvn::Error naming the
  /// offending one (max_batch == 0, zero capacity, negative window, …).
  /// Server's constructor calls this, so a misconfigured server fails at
  /// construction, not mid-traffic.
  void validate() const;
};

/// Snapshot of the server's counters (by value — the server is live).
/// Invariant (checked by the saturation test): every submitted request is
/// accounted exactly once —
///   submitted == rejected_invalid + rejected_overload + rejected_breaker
///              + rejected_admit_fault + expired_in_queue + completed_ok
///              + failed + queued (still in flight).
struct ServerStats {
  i64 submitted = 0;            // every submit() call
  i64 admitted = 0;             // passed admission into the queue
  i64 rejected_invalid = 0;     // kInvalidArgument before admission
  i64 rejected_overload = 0;    // kOverloaded (queue full or draining)
  i64 rejected_breaker = 0;     // circuit breaker failed the request fast
  i64 rejected_admit_fault = 0; // admission fault (serve.admit site)
  i64 completed_ok = 0;         // evaluated, status kOk
  i64 expired_in_queue = 0;     // kDeadline before touching the engine
  i64 failed = 0;               // kFactorFailed / kEvalFailed after admission
  i64 batches = 0;              // engine batches evaluated
  i64 pipelined_batches = 0;    // …of which closed while another evaluated
  i64 batched_queries = 0;      // requests summed over those batches
  i64 max_batch_size = 0;
  i64 max_queue_depth = 0;
  i64 retries = 0;              // transient-failure retries spent
  i64 breaker_trips = 0;        // times a field's breaker opened
  i64 degraded_tiered = 0;      // batches run at DegradeRung::kTiered
  i64 degraded_shift_capped = 0;  // …and at DegradeRung::kShiftCap
  engine::FactorCacheStats cache;  // incl. in-flight takeovers
  std::size_t queue_depth = 0;
  bool draining = false;
  i64 handles_leaked = 0;       // serving runtime's leaked handle slots
};

}  // namespace parmvn::serve
