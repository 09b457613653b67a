// Owning factor facade — the "factor once" half of the factor-once /
// evaluate-many engine.
//
// The PMVN sweep (Algorithm 2) only ever touches a factor through the
// FactorBackend vocabulary (engine/factor_backend.hpp): tile geometry plus
// the mean-form panel protocol — a chain step per tile row, and a
// per-pair mean update (dense/TLR) or a fold inside the chain task
// (Vecchia).
// CholeskyFactor owns one backend — dense tiled, TLR, or Vecchia — behind
// that vocabulary, so it can outlive the stack frame that produced it (a
// prerequisite for caching), and carries the ordering/standardisation
// metadata the confidence-region detector previously recomputed on every
// call. Adding a fourth arithmetic format means writing a FactorBackend
// adapter and a branch in factor(); no sweep, cache, or excursion code
// changes.
//
// A factor is bound to the rt::Runtime that registered its tile handles:
// using it with a different runtime is undefined (the FactorCache keys on
// the runtime uid and never serves cross-runtime hits).
//
// Handle lifetime: a factor's tile handles are *leased* from the runtime
// (rt::HandleLease inside TileMatrix / TlrMatrix; a VecchiaFactor is plain
// CSR and holds none). When the
// last shared owner of the factor dies, the lease returns every tile handle
// to the owning runtime's table — resolved through the uid registry behind
// Runtime::uid_alive(), so a factor that outlives its runtime (a dead cache
// entry) simply drops the handles instead of dangling. A long-lived serving
// runtime whose FactorCache evicts factors therefore keeps a bounded handle
// table; the engine's per-round panel handles — the high-frequency case —
// are released explicitly per round as before.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "engine/factor_backend.hpp"
#include "linalg/generator.hpp"
#include "runtime/runtime.hpp"

namespace parmvn::tile {
class TileMatrix;
}
namespace parmvn::tlr {
class TlrMatrix;
}
namespace parmvn::vecchia {
class VecchiaFactor;
}

namespace parmvn::engine {

/// sqrt of the diagonal of `cov` (throws unless strictly positive) — the
/// standardisation vector shared by factor_ordered's metadata and the
/// confidence-region marginal computation.
[[nodiscard]] std::vector<double> standard_deviations(
    const la::MatrixGenerator& cov);

/// How to build a factor: arithmetic format, tile size, format knobs.
/// New knobs append after vecchia_m with defaults — call sites aggregate-
/// initialise the prefix.
struct FactorSpec {
  FactorKind kind = FactorKind::kDense;
  i64 tile = 256;
  double tlr_tol = 1e-3;  // TLR compression accuracy (ignored for others)
  i64 tlr_max_rank = -1;  // TLR rank cap, < 0 = uncapped, 0 rejected
                          // (ignored for others)
  i64 vecchia_m = 30;     // Vecchia conditioning-set size (ignored for others)
  /// Dense arm: bounded diagonal-boost retries on a non-PD pivot (shared
  /// escalation schedule with the TLR arm, linalg/jitter.hpp). 0 (default)
  /// = off: throw on the first non-PD pivot, bitwise identical to the
  /// pre-safeguard behavior. Also applies to the dense factor built by the
  /// TLR `fallback` below. The TLR arm keeps its own built-in retry ladder.
  int jitter_retries = 0;
  /// TLR arm: when its retry ladder exhausts (persistently non-PD under
  /// compression), fall back to a dense factor of the same ordered matrix
  /// instead of throwing — the last rung of the degradation ladder. Off by
  /// default; CholeskyFactor::degraded() reports when it fired.
  bool fallback = false;
};

class CholeskyFactor {
 public:
  /// Generate and factor the SPD matrix `gen` describes, as-is (no
  /// standardisation or reordering). Blocks until the factorization is
  /// done. The Vecchia kind additionally requires `gen` to expose site
  /// coordinates (la::MatrixGenerator::coords_xy()).
  [[nodiscard]] static CholeskyFactor factor(rt::Runtime& rt,
                                             const la::MatrixGenerator& gen,
                                             const FactorSpec& spec);

  /// Standardise `cov` to a correlation matrix, permute rows/columns by
  /// `order`, then generate and factor. Records `order` and the per-location
  /// standard deviations (original indexing) as metadata, so cache clients
  /// can map limits into the factor's ordered, standardised space without
  /// touching the generator again. Pass `sd` (sqrt of the covariance
  /// diagonal) when the caller has already computed it — e.g. for the
  /// marginal ordering — to skip the diagonal sweep; empty means compute.
  [[nodiscard]] static CholeskyFactor factor_ordered(
      rt::Runtime& rt, const la::MatrixGenerator& cov, std::vector<i64> order,
      const FactorSpec& spec, std::span<const double> sd = {});

  /// Non-owning wrappers around an existing factored matrix (the caller
  /// keeps it alive). Used by the single-query core::pmvn_* entry points.
  [[nodiscard]] static CholeskyFactor borrow_dense(const tile::TileMatrix& l);
  [[nodiscard]] static CholeskyFactor borrow_tlr(const tlr::TlrMatrix& l);
  [[nodiscard]] static CholeskyFactor borrow_vecchia(
      const vecchia::VecchiaFactor& l);

  [[nodiscard]] FactorKind kind() const noexcept { return backend_->kind(); }
  [[nodiscard]] i64 dim() const noexcept { return backend_->dim(); }
  [[nodiscard]] i64 tile_size() const noexcept {
    return backend_->tile_size();
  }
  [[nodiscard]] i64 row_tiles() const noexcept {
    return backend_->row_tiles();
  }
  [[nodiscard]] i64 tile_rows(i64 r) const noexcept {
    return backend_->tile_rows(r);
  }

  /// Wall-clock seconds spent generating + factoring (0 for borrowed).
  [[nodiscard]] double factor_seconds() const noexcept {
    return factor_seconds_;
  }

  /// Whether the factor was built by a degradation fallback (the requested
  /// TLR factorization was persistently non-PD and FactorSpec::fallback
  /// rebuilt it on the dense arm) — kind() then reports the arm actually
  /// built, not the one requested.
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }

  /// Ordering metadata from factor_ordered(); empty for other constructors.
  [[nodiscard]] const std::vector<i64>& order() const noexcept {
    return order_;
  }
  /// sqrt(cov_ii) per original location from factor_ordered(); empty
  /// otherwise.
  [[nodiscard]] const std::vector<double>& sd() const noexcept { return sd_; }

  /// The sweep interface: tile geometry and the two panel protocols (see
  /// engine/factor_backend.hpp).
  [[nodiscard]] const FactorBackend& backend() const noexcept {
    return *backend_;
  }

  /// The concrete factored matrix (throws unless kind() matches); for
  /// clients that need direct access (e.g. MC validation).
  [[nodiscard]] const tile::TileMatrix& dense() const;
  [[nodiscard]] const tlr::TlrMatrix& tlr() const;
  [[nodiscard]] const vecchia::VecchiaFactor& vecchia() const;

 private:
  CholeskyFactor() = default;

  std::shared_ptr<const FactorBackend> backend_;
  std::vector<i64> order_;
  std::vector<double> sd_;
  double factor_seconds_ = 0.0;
  bool degraded_ = false;
};

}  // namespace parmvn::engine
