// hi-opt: branch-and-bound MILP solver.
//
// Depth-first branch and bound over lp::Simplex.  A child node restarts
// from its parent's optimal basis: the child explored next tightens the
// parent's simplex in place and re-solves it with the dual simplex, and
// only the pending sibling keeps a copy.  Algorithm 1's RunMILP needs
// the optimal objective level; the DSE encoding expands the tied optima
// at that level in closed form (dse/milp_encoding.hpp).
#pragma once

#include <vector>

#include "lp/simplex.hpp"
#include "milp/model.hpp"
#include "obs/metrics.hpp"

namespace hi::milp {

/// Solver knobs.
struct Options {
  double int_tol = 1e-6;    ///< integrality tolerance on LP solutions
  double gap_tol = 1e-7;    ///< two objective values within this are equal
  int max_nodes = 200'000;  ///< branch-and-bound node budget
  lp::SimplexOptions lp;    ///< inner LP options
  /// Variables branched first (in order) when fractional; remaining
  /// fractional variables are branched most-fractional-first.  Useful
  /// when a few structural binaries determine the objective.
  std::vector<int> branch_priority;
  /// When non-null, every solve records `milp.solves`, `milp.bnb_nodes`,
  /// `milp.lp_pivots` counters and the `milp.solve_s` timing histogram
  /// (obs::MetricsRegistry; see DESIGN.md §8).  Null = no recording.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Result of a single MILP solve.
struct Solution {
  lp::Status status = lp::Status::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;
  int nodes = 0;           ///< branch-and-bound nodes processed
  int lp_iterations = 0;   ///< total simplex iterations across all nodes
};

/// Solves the MILP to optimality by branch and bound.
[[nodiscard]] Solution solve(const Model& model, const Options& opt = {});

}  // namespace hi::milp
