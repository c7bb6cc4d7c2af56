// hi-opt: branch-and-bound MILP solver.
//
// Depth-first branch and bound over lp::Simplex.  A milp::Solver owns
// the root simplex and a stack of pending-sibling slots, and keeps both
// between solves:
//
//   - A child node restarts from its parent's optimal basis: the child
//     explored next tightens the parent's simplex in place and re-solves
//     it with the dual simplex, and only the pending sibling keeps a copy.
//   - The root outlives the solve.  Solver::tighten narrows a bound on the
//     last optimal root, and the next solve re-solves that root with the
//     dual simplex instead of building the tableau again.  Algorithm 1's
//     Update step raises the lower bound of the encoding's power column
//     and closes the cells below it this way (dse/milp_encoding.hpp).
//     Only the first solve, and any solve after a non-optimal root,
//     starts cold from the model.
//   - Pending siblings live in retained slots (copy-assigned into an
//     existing slot, swapped in on pop), so repeated solves allocate no
//     tableaux.
//
// milp::solve(model, opt) is one fresh solver's single solve.  Algorithm
// 1's RunMILP needs the optimal objective level; the DSE encoding expands
// the tied optima at that level in closed form.
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
  /// Inner LP options.  A Solver's root keeps the options it was built
  /// with, so a warm re-solve must pass the same ones.
  lp::SimplexOptions lp;
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

/// Branch and bound that keeps its root between solves; see the file
/// comment.
class Solver {
 public:
  /// `model` must outlive the solver.  A cold root is built from the
  /// model's state at that solve, so between solves change the model
  /// only by tightening bounds, and pass each change to tighten() too.
  explicit Solver(const Model& model) : model_(model) {}
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Intersects variable v's bounds with [lower, upper] on the root
  /// (when it is warm) for every later solve.
  void tighten(int v, double lower, double upper);

  /// Solves the model under the current bounds to optimality.
  [[nodiscard]] Solution solve(const Options& opt = {});

 private:
  [[nodiscard]] Solution branch_and_bound(const Options& opt);

  const Model& model_;
  std::vector<int> ints_;   ///< the model's integral variables
  lp::SimplexOptions lp_;   ///< the options root_ was built with
  bool warm_ = false;       ///< root_ holds an optimal basis
  lp::Simplex root_;
  lp::Simplex node_;                  ///< the node being explored
  std::vector<lp::Simplex> pending_;  ///< retained sibling slots
};

/// Solves the MILP to optimality by branch and bound.
[[nodiscard]] Solution solve(const Model& model, const Options& opt = {});

}  // namespace hi::milp
