// Parallel tile MVN probability — the paper's Algorithm 2 (PMVN).
//
// Since the engine refactor these entry points are thin single-query
// wrappers over engine::PmvnEngine: they borrow the caller's factored
// matrix, evaluate a 1-element batch, and return its engine::QueryResult.
// Multi-query workloads (many limit sets against one factor) should use
// engine/pmvn_engine.hpp directly — the batched graph packs all queries
// into shared wide column panels so the factorization, the per-tile mean
// update GEMMs and the off-diagonal tile reads amortize across queries.
//
// All three factor backends are supported:
//  * dense tiled L (Chameleon-style potrf_tiled output),
//  * TLR L (HiCMA-style potrf_tlr output) — the mean-update GEMMs then use
//    the low-rank form (Y V) U^T, the source of the TLR speedup at equal
//    QMC cost,
//  * Vecchia sparse inverse-Cholesky (vecchia::VecchiaFactor) — a
//    *different estimand*: the integral of the Vecchia-approximate density,
//    which agrees with the exact PMVN statistically (tighter as vecchia_m
//    grows, exact at m = n-1) but not bitwise.
//
// Memory: the M/Y panels are bounded by `panel_bytes`; sample columns are
// processed panel-by-panel (columns are independent MC chains, so panelling
// is exact, not an approximation).
#pragma once

#include <span>

#include "engine/pmvn_engine.hpp"
#include "runtime/runtime.hpp"
#include "tile/tile_matrix.hpp"
#include "tlr/tlr_matrix.hpp"
#include "vecchia/vecchia_factor.hpp"

namespace parmvn::core {

/// The engine's integration parameters (samples, shifts, sampler, panel
/// budget, adaptive/tiered/deadline knobs — see engine/pmvn_engine.hpp)
/// plus the two per-query fields a single-query call needs.
struct PmvnOptions : engine::EngineOptions {
  u64 seed = 42;
  bool prefix = false;  // also return all prefix probabilities
};

/// PMVN with a dense tiled lower Cholesky factor (lower-symmetric layout).
[[nodiscard]] engine::QueryResult pmvn_dense(rt::Runtime& rt,
                                            const tile::TileMatrix& l,
                                            std::span<const double> a,
                                            std::span<const double> b,
                                            const PmvnOptions& opts = {});

/// PMVN with a TLR lower Cholesky factor (potrf_tlr output).
[[nodiscard]] engine::QueryResult pmvn_tlr(rt::Runtime& rt,
                                          const tlr::TlrMatrix& l,
                                          std::span<const double> a,
                                          std::span<const double> b,
                                          const PmvnOptions& opts = {});

/// PMVN with a Vecchia sparse inverse-Cholesky factor (the Vecchia
/// estimand — see the header note).
[[nodiscard]] engine::QueryResult pmvn_vecchia(
    rt::Runtime& rt, const vecchia::VecchiaFactor& l,
    std::span<const double> a, std::span<const double> b,
    const PmvnOptions& opts = {});

}  // namespace parmvn::core
