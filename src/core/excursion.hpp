// Confidence-region (excursion-set) detection — the paper's Algorithm 1,
// built on the factor-once / evaluate-many PMVN engine.
//
// Given a covariance model over n locations, a mean field, a threshold u and
// a confidence level 1-alpha, computes the positive confidence function
// F+(s) (paper eq. 5) and the region E+_{u,alpha} = {s : F+(s) >= 1-alpha}.
//
// One Cholesky + one prefix-PMVN sweep over the marginal-probability
// ordering gives every prefix's joint probability at once — the running SOV
// product after row i IS the joint probability of the top-(i+1) locations
// (this is what makes large n tractable; test_core_excursion checks it
// against the literal Algorithm 1 loop of one PMVN call per prefix).
//
// Multi-query serving: detect_confidence_regions() evaluates many
// (threshold, alpha, direction) queries against one mean field. Queries
// whose marginal ordering agrees share a single Cholesky factor — obtained
// from the optional engine::FactorCache, so repeated calls (serving) reuse
// factors across requests — and are integrated in one fused batched sweep.
// Each query's numbers are bitwise identical to a detect_confidence_region
// call with the same parameters and seed. Concurrent host threads may call
// this with one shared Runtime + FactorCache: the factor and engine entry
// points serialise their submit…wait_all epochs through
// Runtime::exclusive_epoch() (test_serve drives this). The managed
// alternative is serve::Server (src/serve/), which adds
// admission control, cross-caller batching and overload degradation.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "core/pmvn.hpp"
#include "engine/factor_cache.hpp"
#include "geo/covgen.hpp"
#include "linalg/generator.hpp"

namespace parmvn::core {

/// Factor arm for the sweep. kVecchia targets fields too large for a dense
/// or TLR Cholesky (O(n m^3) build, O(n m) memory) and computes the
/// *Vecchia estimand* — the confidence function of the Vecchia-approximate
/// density — which agrees with the other arms statistically, not bitwise.
using CrdMode = engine::FactorKind;

/// Excursion direction: E+ = {X > u} (the paper's case) or E- = {X < u}
/// (Bolin & Lindgren's negative excursions, e.g. drought or low-pressure
/// regions). E- is computed by the exact reflection X < u <=> -X > -u.
enum class CrdDirection { kAbove, kBelow };

struct CrdOptions {
  double threshold = 0.0;  // u
  double alpha = 0.05;     // confidence level 1 - alpha
  CrdDirection direction = CrdDirection::kAbove;
  i64 tile = 256;
  CrdMode mode = CrdMode::kDense;
  double tlr_tol = 1e-3;   // TLR compression accuracy (paper's sweep values)
  i64 tlr_max_rank = -1;
  i64 vecchia_m = 30;      // Vecchia conditioning-set size (kVecchia only)
  PmvnOptions pmvn;
};

/// One query of a batched detection: threshold/level/direction against the
/// shared mean field. An unset seed inherits CrdOptions::pmvn.seed.
struct CrdQuery {
  double threshold = 0.0;
  double alpha = 0.05;
  CrdDirection direction = CrdDirection::kAbove;
  std::optional<u64> seed;
};

struct CrdResult {
  std::vector<double> marginal;     // pM[i] = P(X_i > u), original indexing
                                    // (P(X_i < u) for kBelow queries)
  std::vector<i64> order;           // opM: locations by descending marginal
  std::vector<double> prefix_prob;  // joint prob of the top-(i+1) set
  std::vector<double> confidence;   // F+ per original location (monotone
                                    // envelope of prefix_prob)
  std::vector<std::uint8_t> region; // 1 where F+ >= 1 - alpha
  i64 region_size = 0;
  double factor_seconds = 0.0;      // Cholesky time paid by this call,
                                    // attributed to the first query of each
                                    // ordering group (0 for the group's
                                    // other members and on cache hits), so
                                    // a batch sum equals the true cost
  double sweep_seconds = 0.0;       // PMVN integration time, attributed
                                    // like factor_seconds: the group's
                                    // fused-batch wall time on its first
                                    // member, 0 on the others
  bool factor_cached = false;       // factor came from the FactorCache
  i64 samples_used = 0;             // QMC samples this query's sweep spent
                                    // (less than the budget when the
                                    // adaptive stop retired it early;
                                    // shared-slot members report the same)
  int shifts_used = 0;              // shift blocks actually evaluated
  bool converged = false;           // adaptive stop criterion met
  /// kEp when the tiered EP screen (EngineOptions::tiered) decided this
  /// query's region without spending QMC samples on it; kDeadline when
  /// EngineOptions::deadline_ms expired mid-sweep (prefix_prob and the region
  /// are then computed from the partial estimate, converged == false).
  engine::EvalMethod method = engine::EvalMethod::kQmc;
  /// Per-query outcome of a batched detection. A failed ordering group
  /// (factorization or sweep) marks each of its members instead of aborting
  /// the sibling groups: marginal/order stay filled (they are computed
  /// before anything can fail), prefix_prob/confidence/region are empty.
  /// The single-query detect_confidence_region still throws, as before.
  Status status;
};

/// Detect the confidence region for the Gaussian field X ~ N(mean, cov).
/// `cov` must be symmetric positive definite; it is standardised to a
/// correlation matrix internally (Algorithm 1 divides by sqrt(Sigma_ii)).
[[nodiscard]] CrdResult detect_confidence_region(
    rt::Runtime& rt, const la::MatrixGenerator& cov,
    std::span<const double> mean, const CrdOptions& opts);

/// Batched detection: evaluate every query against the shared field,
/// factoring each distinct marginal ordering once (served from `cache` when
/// provided) and integrating all queries of an ordering in one fused PMVN
/// batch. Results are positionally matched to `queries`. `opts.pmvn` is
/// validated before anything is factored, so nonsense options throw without
/// paying for (or caching) a Cholesky.
[[nodiscard]] std::vector<CrdResult> detect_confidence_regions(
    rt::Runtime& rt, const la::MatrixGenerator& cov,
    std::span<const double> mean, const CrdOptions& opts,
    std::span<const CrdQuery> queries,
    engine::FactorCache* cache = nullptr);

}  // namespace parmvn::core
