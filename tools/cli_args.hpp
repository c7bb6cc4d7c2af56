// hi-opt: flag-value parsing and the error boundary shared by the
// hi_campaign, hi_pareto and hi_crowd CLIs.
//
// Every parser consumes the whole argument or fails; the caller turns a
// failure into its usage error (exit 2).  Integer flags land in `int`
// fields, so parse_int rejects anything outside the flag's range rather
// than letting a static_cast wrap it (`--gamma 4294967295` must not run
// as Γ = -1, nor `--realizations 4294967297` as K = 1).
#pragma once

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "common/assert.hpp"

namespace hi::cli {

/// Parses a base-10 unsigned integer (strtoull syntax); fails on an
/// empty string, trailing characters or overflow.
inline bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

/// Parses a base-10 integer in [lo, hi] into an int flag.
inline bool parse_int(const char* s, int& out, int lo = 0,
                      int hi = INT_MAX) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v) || v < static_cast<std::uint64_t>(lo) ||
      v > static_cast<std::uint64_t>(hi)) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

/// Parses a double (strtod syntax); fails on an empty string or
/// trailing characters.
inline bool parse_f64(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

/// Runs a CLI's body.  A hi::ModelError — user input the flag parsers
/// cannot judge alone, e.g. a confidence level or a Tsim the model
/// rejects — becomes a one-line `<tool>: <message>` on stderr and exit
/// code 2, like any other usage error.  InternalError and HI_ASSERT
/// failures are bugs and still abort.
template <typename Body>
int run_main(const char* tool, Body&& body) {
  try {
    return body();
  } catch (const hi::ModelError& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace hi::cli
