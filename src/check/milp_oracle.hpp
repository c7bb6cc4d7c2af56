// hi-opt: exact MILP oracle — brute-force integer-box enumeration.
//
// For a milp::Model whose integral variables all have finite bounds, the
// oracle walks every integer assignment in the box (an odometer over the
// per-variable ranges), substitutes it into the rows, and either checks
// feasibility directly (pure-integer model) or solves the remaining
// continuous LP exactly with the vertex oracle (mixed model).  The
// result is the exact optimum plus the *complete set* of optimal
// integral assignments, and milp::solve's assignment must be one of
// them (check_milp_against_oracle).
//
// Scope: the box may contain at most `max_boxes` assignments (default
// 2^20); mixed models additionally inherit the LP oracle's limits per
// box.  Inside that envelope the verdict is exact.
#pragma once

#include <cstdint>
#include <vector>

#include "check/lp_oracle.hpp"
#include "milp/model.hpp"

namespace hi::check {

/// Outcome of an exact MILP solve.
struct MilpOracleResult {
  OracleStatus status = OracleStatus::kInfeasible;
  Rational objective;  ///< exact, in the model's own sense
  /// Every optimal assignment of the integral variables, in
  /// model.integral_variables() order, deduplicated, in odometer order.
  std::vector<std::vector<std::int64_t>> optimal_assignments;
  std::uint64_t boxes_checked = 0;
};

/// Solves `m` exactly.  Throws hi::ModelError when an integral variable
/// is unbounded or the box exceeds `max_boxes` assignments, and
/// check::OverflowError when the arithmetic outgrows the limbs.
[[nodiscard]] MilpOracleResult solve_milp_exact(
    const milp::Model& m, std::uint64_t max_boxes = 1u << 20);

}  // namespace hi::check
