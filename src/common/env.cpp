#include "common/env.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/contracts.hpp"

namespace parmvn {

int default_num_threads() {
  constexpr const char* kVar = "PARMVN_NUM_THREADS";
  const char* v = std::getenv(kVar);
  if (v == nullptr || *v == '\0') {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  // from_chars rejects '+', spaces and base prefixes and reports overflow of
  // int; the leading-digit check rejects the '-' it would accept.
  const char* end = v + std::strlen(v);
  int n = 0;
  const auto [ptr, ec] = std::from_chars(v, end, n);
  if (*v < '0' || *v > '9' || ec != std::errc() || ptr != end || n <= 0)
    throw Error(std::string(kVar) + "=\"" + v +
                "\": expected a positive decimal integer that fits in int");
  return n;
}

}  // namespace parmvn
