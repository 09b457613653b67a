// Warm-start store for EP site parameters, attached to a CholeskyFactor
// (engine::CholeskyFactor::ep_cache()) so repeated screens against one
// field reuse converged sites: a re-evaluated query (serving traffic)
// certifies its cached fixed point in a single damped sweep — half the
// cold screen cost.
//
// Lookup returns the stored state whose limit vector is nearest (L-inf) to
// the query's — a copy, so concurrent screens never share mutable state.
// The store is a small LRU (kCapacity entries) guarded by one mutex;
// FactorCache shares factors across serving threads, so the cache must be
// internally synchronised. A state is only meaningful for the factor this
// cache hangs off (same bits, same dimension) — it never crosses factors
// because the cache lives inside one.
#pragma once

#include <limits>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "ep/ep_screen.hpp"

namespace parmvn::ep {

class SiteCache {
 public:
  static constexpr std::size_t kCapacity = 8;

  /// Nearest stored state by L-inf distance over (a, b) — infinities match
  /// exactly or the candidate is skipped. Candidates farther than
  /// `max_distance` are ignored (pass 0.0 for exact repeats only: the
  /// engine does, because the screen's warm path certifies in one sweep
  /// only when the seed is already at the fixed point — a merely nearby
  /// seed costs a wasted damped pass on top of the direct solve). Empty
  /// when nothing qualifies.
  [[nodiscard]] std::optional<EpState> lookup(
      std::span<const double> a, std::span<const double> b,
      double max_distance = std::numeric_limits<double>::infinity()) const;

  /// Store (move) a converged state under its limit vectors; an entry with
  /// identical limits is replaced, otherwise the least-recently stored
  /// entry falls out past kCapacity.
  void store(std::span<const double> a, std::span<const double> b,
             EpState state);

 private:
  struct Entry {
    std::vector<double> a, b;
    EpState state;
  };

  mutable std::mutex mu_;
  std::list<Entry> entries_;  // front = most recent
};

}  // namespace parmvn::ep
