#include "engine/cholesky_factor.hpp"

#include <cmath>
#include <utility>

#include "common/contracts.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "engine/dense_backend.hpp"
#include "engine/tlr_backend.hpp"
#include "geo/covgen.hpp"
#include "tile/tiled_potrf.hpp"
#include "tlr/tlr_potrf.hpp"
#include "vecchia/vecchia_backend.hpp"

namespace parmvn::engine {

namespace {

// Non-owning shared_ptr: the aliasing constructor with an empty owner leaves
// the control block null, so no deleter ever runs.
template <class T>
std::shared_ptr<const T> borrow(const T& ref) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>{}, &ref);
}

// Build the dense backend for `gen` — the kDense arm, and the fallback rung
// the kTlr arm lands on when its retry ladder exhausts.
std::shared_ptr<const DenseBackend> build_dense(rt::Runtime& rt,
                                                const la::MatrixGenerator& gen,
                                                const FactorSpec& spec) {
  tile::TileMatrix l(rt, gen.rows(), gen.rows(), spec.tile,
                     tile::Layout::kLowerSymmetric, "Sigma");
  l.generate_async(rt, gen);
  rt.wait_all();
  tile::potrf_tiled_safeguarded(rt, l, spec.jitter_retries);
  return std::make_shared<const DenseBackend>(
      std::make_shared<const tile::TileMatrix>(std::move(l)));
}

}  // namespace

std::vector<double> standard_deviations(const la::MatrixGenerator& cov) {
  const i64 n = cov.rows();
  std::vector<double> sd(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    const double var = cov.entry(i, i);
    PARMVN_EXPECTS(var > 0.0);
    sd[static_cast<std::size_t>(i)] = std::sqrt(var);
  }
  return sd;
}

CholeskyFactor CholeskyFactor::factor(rt::Runtime& rt,
                                      const la::MatrixGenerator& gen,
                                      const FactorSpec& spec) {
  PARMVN_EXPECTS(gen.rows() == gen.cols());
  PARMVN_EXPECTS(spec.tile >= 1);
  PARMVN_EXPECTS(spec.jitter_retries >= 0);
  // Factoring is a full submit…wait_all epoch: serialise it against other
  // host threads sharing `rt` (concurrent cache misses on different keys,
  // concurrent detect_confidence_regions callers).
  const auto epoch = rt.exclusive_epoch();
  PARMVN_FAULT_POINT("engine.factor");
  const i64 n = gen.rows();

  CholeskyFactor f;
  const WallTimer timer;
  switch (spec.kind) {
    case FactorKind::kDense: {
      f.backend_ = build_dense(rt, gen, spec);
      break;
    }
    case FactorKind::kTlr: {
      // Outside the fallback's try: a cap of 0 is a caller error, not a
      // factorisation failure the dense rung should absorb.
      PARMVN_EXPECTS(spec.tlr_max_rank != 0);
      try {
        tlr::TlrMatrix l = tlr::TlrMatrix::compress(rt, gen, spec.tile,
                                                    spec.tlr_tol,
                                                    spec.tlr_max_rank);
        tlr::potrf_tlr(rt, l);
        f.backend_ = std::make_shared<const TlrBackend>(
            std::make_shared<const tlr::TlrMatrix>(std::move(l)));
      } catch (const Error&) {
        // Persistent non-PD under compression: with the opt-in fallback,
        // take the last rung of the degradation ladder — the exact dense
        // factor of the same matrix (no truncation perturbation to lose
        // definiteness to). Without it the typed error propagates.
        if (!spec.fallback) throw;
        f.backend_ = build_dense(rt, gen, spec);
        f.degraded_ = true;
      }
      break;
    }
    case FactorKind::kVecchia: {
      PARMVN_EXPECTS(spec.vecchia_m >= 1);
      const std::vector<double> xy = gen.coords_xy();
      if (static_cast<i64>(xy.size()) != 2 * n)
        throw Error(
            "CholeskyFactor: the Vecchia kind requires a generator with site "
            "coordinates (la::MatrixGenerator::coords_xy)");
      f.backend_ = std::make_shared<const vecchia::VecchiaBackend>(
          std::make_shared<const vecchia::VecchiaFactor>(
              vecchia::VecchiaFactor::build(rt, gen, xy, spec.tile,
                                            spec.vecchia_m)));
      break;
    }
  }
  f.factor_seconds_ = timer.seconds();
  return f;
}

CholeskyFactor CholeskyFactor::factor_ordered(rt::Runtime& rt,
                                              const la::MatrixGenerator& cov,
                                              std::vector<i64> order,
                                              const FactorSpec& spec,
                                              std::span<const double> sd) {
  const i64 n = cov.rows();
  PARMVN_EXPECTS(cov.cols() == n);
  PARMVN_EXPECTS(static_cast<i64>(order.size()) == n);
  PARMVN_EXPECTS(sd.empty() || static_cast<i64>(sd.size()) == n);

  const geo::CorrelationGenerator corr(cov);
  const geo::PermutedGenerator permuted(corr, order);
  CholeskyFactor f = factor(rt, permuted, spec);

  f.order_ = std::move(order);
  if (sd.empty()) {
    f.sd_ = standard_deviations(cov);
  } else {
    f.sd_.assign(sd.begin(), sd.end());
  }
  return f;
}

CholeskyFactor CholeskyFactor::borrow_dense(const tile::TileMatrix& l) {
  CholeskyFactor f;
  f.backend_ = std::make_shared<const DenseBackend>(borrow(l));
  return f;
}

CholeskyFactor CholeskyFactor::borrow_tlr(const tlr::TlrMatrix& l) {
  CholeskyFactor f;
  f.backend_ = std::make_shared<const TlrBackend>(borrow(l));
  return f;
}

CholeskyFactor CholeskyFactor::borrow_vecchia(const vecchia::VecchiaFactor& l) {
  CholeskyFactor f;
  f.backend_ = std::make_shared<const vecchia::VecchiaBackend>(borrow(l));
  return f;
}

const tile::TileMatrix& CholeskyFactor::dense() const {
  const auto* d = dynamic_cast<const DenseBackend*>(backend_.get());
  PARMVN_EXPECTS(d != nullptr);
  return d->matrix();
}

const tlr::TlrMatrix& CholeskyFactor::tlr() const {
  const auto* t = dynamic_cast<const TlrBackend*>(backend_.get());
  PARMVN_EXPECTS(t != nullptr);
  return t->matrix();
}

const vecchia::VecchiaFactor& CholeskyFactor::vecchia() const {
  const auto* v = dynamic_cast<const vecchia::VecchiaBackend*>(backend_.get());
  PARMVN_EXPECTS(v != nullptr);
  return v->factor();
}

}  // namespace parmvn::engine
