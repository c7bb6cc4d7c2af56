// hi-opt: the seed-replay fuzzer behind the fuzz_dse binary.
//
// run_fuzz walks a contiguous block of ScenarioGen seeds; for each seed
// it builds the scenario instance and runs a battery of properties
// (check/properties.hpp): the solver-vs-oracle differentials (cold and
// warm-started simplex, cold and warm re-solved branch and bound), the
// closed-form MILP level walk at Γ = 0 and at the robust Γ, the
// simulator invariant audit, the Γ=0 and crowd M=1 collapse checks,
// Algorithm 1 vs the PDRmin ladder's rungs (nominal and at the robust
// Γ/K) and the fade tape ≡ stream property every time, and one of the
// heavy whole-run metamorphic checks (Algorithm 1 vs exhaustive + PDRmin
// monotonicity, thread determinism + shared fade tapes vs none, and
// their robust twins) in rotation so a fuzz session covers them
// without multiplying its cost.
//
// On a failure the fuzzer re-runs the failing property at increasing
// shrink levels (scenario_gen.hpp) and reports the deepest level that
// still reproduces, together with the exact replay command:
//
//     fuzz_dse --seed <S> --shrink <L> --scenarios 1
//
// Everything is deterministic in (seed, shrink), so the replay is exact.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace hi::check {

/// Fuzzer controls (mirrors the fuzz_dse command line).
struct FuzzOptions {
  std::uint64_t seed = 1;  ///< first scenario seed; seeds are contiguous
  int scenarios = 200;     ///< how many seeds to walk
  int shrink_level = 0;    ///< shrink level applied to every scenario
  int gamma = 1;           ///< Γ for the robust property battery
  int realizations = 2;    ///< K for the robust property battery
  bool verbose = false;    ///< per-seed progress lines
  std::ostream* out = nullptr;  ///< report stream (null = silent)
};

/// One property failure, shrunk to its smallest reproducing instance.
struct FuzzFailure {
  std::uint64_t seed = 0;
  int shrink_level = 0;      ///< deepest level that still reproduces
  std::string property;
  std::vector<std::string> violations;
  std::string scenario_summary;
  std::string replay;        ///< the exact reproduction command
};

/// Session outcome.
struct FuzzReport {
  int scenarios_run = 0;
  std::uint64_t properties_checked = 0;
  std::vector<FuzzFailure> failures;
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs the session described by `opt`; see the file comment.
[[nodiscard]] FuzzReport run_fuzz(const FuzzOptions& opt);

}  // namespace hi::check
