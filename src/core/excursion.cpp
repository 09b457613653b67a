#include "core/excursion.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "engine/pmvn_engine.hpp"
#include "stats/normal.hpp"

namespace parmvn::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A query normalised into E+ space: kBelow becomes kAbove of the reflected
// field (X < u <=> -X > -u; the covariance is reflection-invariant), which
// only flips the sign of the standardised threshold z.
struct PreparedQuery {
  double alpha = 0.0;
  u64 seed = 0;
  std::vector<double> marginal;  // original indexing
  std::vector<i64> order;        // descending marginal
  std::vector<double> a_ord;     // lower limits in the ordered space
};

PreparedQuery prepare_query(std::span<const double> sd,
                            std::span<const double> mean, const CrdQuery& q,
                            u64 default_seed) {
  PARMVN_EXPECTS(q.alpha > 0.0 && q.alpha < 1.0);
  const i64 n = static_cast<i64>(mean.size());
  PreparedQuery pq;
  pq.alpha = q.alpha;
  pq.seed = q.seed.value_or(default_seed);

  // Lines 3-5 of Algorithm 1: marginal exceedance probabilities of the
  // (possibly reflected) field.
  pq.marginal.resize(static_cast<std::size_t>(n));
  std::vector<double> z(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    const double zi =
        (q.threshold - mean[static_cast<std::size_t>(i)]) /
        sd[static_cast<std::size_t>(i)];
    z[static_cast<std::size_t>(i)] =
        q.direction == CrdDirection::kAbove ? zi : -zi;
    pq.marginal[static_cast<std::size_t>(i)] =
        1.0 - stats::norm_cdf(z[static_cast<std::size_t>(i)]);
  }

  // Line 6: order locations by descending marginal probability.
  pq.order.resize(static_cast<std::size_t>(n));
  std::iota(pq.order.begin(), pq.order.end(), i64{0});
  std::stable_sort(pq.order.begin(), pq.order.end(), [&](i64 x, i64 y) {
    return pq.marginal[static_cast<std::size_t>(x)] >
           pq.marginal[static_cast<std::size_t>(y)];
  });

  // Limits in the ordered, standardised space: the event is
  // {X_ord > z_ord} component-wise, i.e. a = z, b = +inf.
  pq.a_ord.resize(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    pq.a_ord[static_cast<std::size_t>(i)] =
        z[static_cast<std::size_t>(pq.order[static_cast<std::size_t>(i)])];
  return pq;
}

// Confidence function (monotone non-increasing envelope of the prefix
// probabilities mapped back to original indices) and the level set.
void finalize_result(PreparedQuery&& pq, std::vector<double> prefix_prob,
                     CrdResult& res) {
  const i64 n = static_cast<i64>(pq.marginal.size());
  res.marginal = std::move(pq.marginal);
  res.order = std::move(pq.order);
  res.prefix_prob = std::move(prefix_prob);

  res.confidence.resize(static_cast<std::size_t>(n));
  double running = 1.0;
  for (i64 i = 0; i < n; ++i) {
    running = std::min(running, res.prefix_prob[static_cast<std::size_t>(i)]);
    res.confidence[static_cast<std::size_t>(
        res.order[static_cast<std::size_t>(i)])] = running;
  }

  const double level = 1.0 - pq.alpha;
  res.region.assign(static_cast<std::size_t>(n), 0);
  res.region_size = 0;
  for (i64 i = 0; i < n; ++i) {
    if (res.confidence[static_cast<std::size_t>(i)] >= level) {
      res.region[static_cast<std::size_t>(i)] = 1;
      ++res.region_size;
    }
  }
}

}  // namespace

CrdResult detect_confidence_region(rt::Runtime& rt,
                                   const la::MatrixGenerator& cov,
                                   std::span<const double> mean,
                                   const CrdOptions& opts) {
  const i64 n = cov.rows();
  PARMVN_EXPECTS(cov.cols() == n);
  PARMVN_EXPECTS(static_cast<i64>(mean.size()) == n);
  PARMVN_EXPECTS(opts.alpha > 0.0 && opts.alpha < 1.0);

  const CrdQuery query{opts.threshold, opts.alpha, opts.direction,
                       opts.pmvn.seed};
  std::vector<CrdResult> results =
      detect_confidence_regions(rt, cov, mean, opts, {&query, 1});
  // The batch API isolates failures per group; the single-query entry point
  // keeps its historical throwing contract.
  if (!results.front().status.ok()) throw Error(results.front().status.message);
  return std::move(results.front());
}

std::vector<CrdResult> detect_confidence_regions(
    rt::Runtime& rt, const la::MatrixGenerator& cov,
    std::span<const double> mean, const CrdOptions& opts,
    std::span<const CrdQuery> queries, engine::FactorCache* cache) {
  const i64 n = cov.rows();
  PARMVN_EXPECTS(cov.cols() == n);
  PARMVN_EXPECTS(static_cast<i64>(mean.size()) == n);
  // Reject nonsense integration options before any O(n^3) factorization
  // runs (and lands in the cache); PmvnEngine would only catch them after.
  opts.pmvn.validate();
  if (queries.empty()) return {};

  const std::vector<double> sd = engine::standard_deviations(cov);

  std::vector<PreparedQuery> prepared;
  prepared.reserve(queries.size());
  for (const CrdQuery& q : queries)
    prepared.push_back(prepare_query(sd, mean, q, opts.pmvn.seed));

  // Group queries by marginal ordering: one factor (and one fused batched
  // sweep) per distinct permutation. With a constant-variance field the
  // ordering is threshold-independent, so typical multi-threshold batches
  // collapse into a single group.
  std::map<std::vector<i64>, std::vector<std::size_t>> groups;
  for (std::size_t qi = 0; qi < prepared.size(); ++qi)
    groups[prepared[qi].order].push_back(qi);

  const engine::FactorSpec spec{opts.mode, opts.tile, opts.tlr_tol,
                                opts.tlr_max_rank, opts.vecchia_m};
  std::vector<CrdResult> results(queries.size());
  const std::vector<double> b_ord(static_cast<std::size_t>(n), kInf);

  for (auto& [order, members] : groups) {
    // A failing group marks its own members and moves on: sibling groups
    // (other orderings, already-finished results) must never be torn down
    // by one group's bad factorization or sweep. Marginals and the ordering
    // are computed before anything can fail, so even a failed member
    // reports what it was integrating.
    const auto fail_group = [&](const std::vector<std::size_t>& group_members,
                                Status status) {
      for (const std::size_t qi : group_members) {
        CrdResult& res = results[qi];
        res.status = status;
        res.marginal = std::move(prepared[qi].marginal);
        res.order = std::move(prepared[qi].order);
      }
    };

    std::shared_ptr<const engine::CholeskyFactor> factor;
    bool cached = false;
    double factor_paid_s = 0.0;
    try {
      if (cache != nullptr) {
        const WallTimer factor_timer;
        // `cached` comes from the call itself, not a stats() delta — the
        // counters are shared across serving threads and race.
        factor = cache->get_or_factor(rt, cov, order, spec, sd, &cached);
        factor_paid_s = cached ? 0.0 : factor_timer.seconds();
      } else {
        factor = std::make_shared<const engine::CholeskyFactor>(
            engine::CholeskyFactor::factor_ordered(rt, cov, order, spec, sd));
        factor_paid_s = factor->factor_seconds();
      }
    } catch (const std::exception& e) {
      fail_group(members, Status::factor_failed(e.what()));
      continue;
    }

    // Deduplicate identical integrals within the group: queries differing
    // only in alpha share (a_ord, seed) and therefore the exact same prefix
    // sweep — an alpha-level sweep costs one integration, not k.
    const engine::PmvnEngine eng(rt, factor, opts.pmvn);
    std::vector<engine::LimitSet> limits;
    std::vector<std::size_t> slot_of_member(members.size());
    // Decision threshold for adaptive early stop: the region test compares
    // the confidence envelope against 1 - alpha, so a slot whose members all
    // share one alpha can retire as soon as every prefix clears that level.
    // Members at different alphas reuse one sweep — the slot then keeps NaN
    // (no decision stop) so no member's level is starved of accuracy.
    std::vector<double> slot_alpha;
    for (std::size_t mi = 0; mi < members.size(); ++mi) {
      const PreparedQuery& pq = prepared[members[mi]];
      std::size_t slot = limits.size();
      for (std::size_t s = 0; s < limits.size(); ++s) {
        if (limits[s].seed == pq.seed &&
            std::equal(limits[s].a.begin(), limits[s].a.end(),
                       pq.a_ord.begin(), pq.a_ord.end())) {
          slot = s;
          break;
        }
      }
      if (slot == limits.size()) {
        limits.push_back(
            engine::LimitSet{pq.a_ord, b_ord, pq.seed, /*prefix=*/true});
        slot_alpha.push_back(pq.alpha);
      } else if (slot_alpha[slot] != pq.alpha) {
        slot_alpha[slot] = std::numeric_limits<double>::quiet_NaN();
      }
      slot_of_member[mi] = slot;
    }
    for (std::size_t s = 0; s < limits.size(); ++s)
      limits[s].decision = 1.0 - slot_alpha[s];  // NaN stays NaN
    std::vector<engine::QueryResult> batch;
    try {
      batch = eng.evaluate(limits);
    } catch (const std::exception& e) {
      fail_group(members, Status::eval_failed(e.what()));
      continue;
    }

    // The last member consuming a dedup slot takes the prefix vector by
    // move (a sole-owner slot — the common alpha-sweep case — never copies).
    std::vector<i64> slot_remaining(limits.size(), 0);
    for (const std::size_t slot : slot_of_member) ++slot_remaining[slot];

    for (std::size_t mi = 0; mi < members.size(); ++mi) {
      const std::size_t qi = members[mi];
      const std::size_t slot = slot_of_member[mi];
      engine::QueryResult& qr = batch[slot];
      CrdResult& res = results[qi];
      // Attribute the group's one Cholesky and its one fused sweep to the
      // first member, so summing the per-query costs over a batch gives the
      // true totals.
      res.factor_seconds = mi == 0 ? factor_paid_s : 0.0;
      res.factor_cached = cached;
      res.sweep_seconds = mi == 0 ? qr.seconds : 0.0;
      res.samples_used = qr.samples_used;
      res.shifts_used = qr.shifts_used;
      res.converged = qr.converged;
      res.method = qr.method;
      std::vector<double> prefix = (--slot_remaining[slot] == 0)
                                       ? std::move(qr.prefix_prob)
                                       : qr.prefix_prob;
      finalize_result(std::move(prepared[qi]), std::move(prefix), res);
    }
  }
  return results;
}

}  // namespace parmvn::core
