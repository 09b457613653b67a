// Contract-checking macros and the library error type.
//
// Follows the C++ Core Guidelines (I.6 "Prefer Expects() for expressing
// preconditions", E.x error-handling rules): preconditions/postconditions are
// checked in all build types because this library is used for statistical
// decisions where silent corruption is worse than an abort-with-message.
#pragma once

#include <cmath>
#include <source_location>
#include <span>
#include <stdexcept>
#include <string>

namespace parmvn {

/// Exception thrown for all recoverable library errors (bad input shape,
/// non-SPD matrix handed to a Cholesky, file I/O failures, ...).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const std::source_location loc =
                                              std::source_location::current()) {
  throw Error(std::string(kind) + " violation: (" + expr + ") at " +
              loc.file_name() + ":" + std::to_string(loc.line()));
}
}  // namespace detail

/// Limit check of the probability entry points: Phi(b) - Phi(a) is 0 for a
/// NaN limit, so an unchecked NaN would come back as a confident
/// probability 0. Throws Error("<who>: NaN limit a[i]") (or b[i]) for the
/// first NaN coordinate.
inline void expect_no_nan_limits(const std::string& who,
                                 std::span<const double> a,
                                 std::span<const double> b) {
  if (a.size() != b.size()) throw Error(who + ": limit lengths differ");
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::isnan(a[i]) || std::isnan(b[i]))
      throw Error(who + ": NaN limit " + (std::isnan(a[i]) ? "a[" : "b[") +
                  std::to_string(i) + "]");
}

}  // namespace parmvn

/// Precondition check: throws parmvn::Error when violated.
#define PARMVN_EXPECTS(cond)                                        \
  do {                                                              \
    if (!(cond)) ::parmvn::detail::contract_failure("precondition", #cond); \
  } while (false)

/// Postcondition / invariant check: throws parmvn::Error when violated.
#define PARMVN_ENSURES(cond)                                         \
  do {                                                               \
    if (!(cond)) ::parmvn::detail::contract_failure("postcondition", #cond); \
  } while (false)

/// Unrecoverable internal invariant; still throws so tests can observe it.
#define PARMVN_ASSERT(cond)                                      \
  do {                                                           \
    if (!(cond)) ::parmvn::detail::contract_failure("invariant", #cond); \
  } while (false)
