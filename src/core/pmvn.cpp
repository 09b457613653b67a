#include "core/pmvn.hpp"

#include <memory>
#include <utility>

#include "common/contracts.hpp"
#include "engine/pmvn_engine.hpp"

namespace parmvn::core {

namespace {

engine::QueryResult run_single(rt::Runtime& rt, engine::CholeskyFactor factor,
                               std::span<const double> a,
                               std::span<const double> b,
                               const PmvnOptions& opts) {
  // The engine takes the EngineOptions base (and validates it); seed and
  // prefix are per-query.
  const engine::PmvnEngine eng(
      rt, std::make_shared<const engine::CholeskyFactor>(std::move(factor)),
      opts);
  return eng.evaluate_one({a, b, opts.seed, opts.prefix});
}

}  // namespace

engine::QueryResult pmvn_dense(rt::Runtime& rt, const tile::TileMatrix& l,
                               std::span<const double> a,
                               std::span<const double> b,
                               const PmvnOptions& opts) {
  PARMVN_EXPECTS(l.layout() == tile::Layout::kLowerSymmetric);
  return run_single(rt, engine::CholeskyFactor::borrow_dense(l), a, b, opts);
}

engine::QueryResult pmvn_tlr(rt::Runtime& rt, const tlr::TlrMatrix& l,
                             std::span<const double> a,
                             std::span<const double> b,
                             const PmvnOptions& opts) {
  return run_single(rt, engine::CholeskyFactor::borrow_tlr(l), a, b, opts);
}

engine::QueryResult pmvn_vecchia(rt::Runtime& rt,
                                 const vecchia::VecchiaFactor& l,
                                 std::span<const double> a,
                                 std::span<const double> b,
                                 const PmvnOptions& opts) {
  return run_single(rt, engine::CholeskyFactor::borrow_vecchia(l), a, b,
                    opts);
}

}  // namespace parmvn::core
