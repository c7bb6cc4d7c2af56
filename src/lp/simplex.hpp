// hi-opt: bounded-variable simplex.
//
// Every variable keeps its own bounds lo <= x <= hi (either side may be
// infinite); only the problem's rows enter the tableau, each with one
// logical column whose bounds encode the row sense.  A cold solve runs
// the two-phase primal simplex, with phase-1 artificials on the rows
// the starting point violates.  After Simplex::tighten, solve() restarts
// from the last optimal basis with the dual simplex: a bound change
// keeps the basis dual feasible, so only the primal infeasibility it
// causes needs repair.  This is how branch-and-bound children restart
// from their parent, and how a MILP root is re-solved after a DSE
// round's power cut (milp/solver.hpp).  Dantzig's rule with a Bland
// anti-cycling fallback throughout, so every phase terminates.
//
// The tableau is dense and the pivots are sparse: sized for the
// Human-Intranet DSE MILPs (tens of variables, ~a hundred rows), not
// for large-scale LPs.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/problem.hpp"

namespace hi::lp {

/// Solver verdict.
enum class Status {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

/// Human-readable status name.
[[nodiscard]] const char* to_string(Status s);

/// Result of an LP solve.
struct Solution {
  Status status = Status::kIterationLimit;
  double objective = 0.0;      ///< in the problem's own sense
  std::vector<double> x;       ///< primal point (original variable space)
  int iterations = 0;          ///< simplex iterations (pivots + bound flips)
  int bland_pivots = 0;        ///< iterations taken under the Bland fallback
};

/// Solver knobs.
struct SimplexOptions {
  double tol = 1e-9;          ///< pivot / reduced-cost tolerance
  double feas_tol = 1e-7;     ///< primal feasibility tolerance
  int max_iterations = 0;     ///< per solve; 0 => scales with problem size
  /// Dantzig iterations granted per phase before the anti-cycling Bland
  /// fallback takes over; 0 => automatic (20 * (rows + columns)).
  /// Tests set it to 1 to force the fallback on degenerate problems.
  int dantzig_stall_budget = 0;

  bool operator==(const SimplexOptions&) const = default;
};

/// One problem's simplex state; see the file comment.
class Simplex {
 public:
  /// An empty slot, to be assigned a Simplex before it is solved.
  Simplex() = default;
  explicit Simplex(const Problem& p, const SimplexOptions& opt = {});

  /// Intersects variable v's bounds with [lower, upper].  An empty
  /// result makes the next solve infeasible.
  void tighten(int v, double lower, double upper);

  /// Solves the problem under the current bounds: two-phase primal on
  /// the first call, dual simplex from the last optimal basis after
  /// that.  Once a solve ends non-optimal the state cannot be re-solved.
  [[nodiscard]] Solution solve();

 private:
  enum class State { kFresh, kOptimal, kFailed };

  [[nodiscard]] double& at(int r, int j) {
    return t_[static_cast<std::size_t>(r) * n_ + j];
  }
  [[nodiscard]] double at(int r, int j) const {
    return t_[static_cast<std::size_t>(r) * n_ + j];
  }
  [[nodiscard]] bool basic(int j) const { return row_of_[j] >= 0; }
  void resize_columns(int n);
  void pivot(int pr, int pc);
  void price(const std::vector<double>& cost);
  [[nodiscard]] Status primal(int& iters, int& bland, int max_iters);
  [[nodiscard]] Status dual(int& iters, int& bland, int max_iters);
  [[nodiscard]] Status cold(int& iters, int& bland, int max_iters);

  SimplexOptions opt_;
  int m_ = 0;         ///< rows
  int n_ = 0;         ///< columns: structurals, logicals, artificials
  int n_struct_ = 0;  ///< structural columns (the problem's variables)
  double sense_ = 1.0;         ///< -1 for maximization
  std::vector<double> t_;      ///< B^-1 [A | I | artificials], row-major
  std::vector<double> x_;      ///< value of every column
  std::vector<double> lo_, hi_;  ///< column bounds
  std::vector<double> cost_;   ///< minimize-sense costs, 0 off structurals
  std::vector<double> d_;      ///< reduced costs of the running phase
  std::vector<int> head_;      ///< basic column of each row
  std::vector<int> row_of_;    ///< row of a basic column, -1 if nonbasic
  std::vector<int> nz_;        ///< scratch: nonzeros of the pivot row
  State state_ = State::kFresh;
  bool empty_ = false;  ///< some variable's bounds crossed
};

/// Solves `p` from scratch (two-phase primal simplex).
[[nodiscard]] Solution solve_simplex(const Problem& p,
                                     const SimplexOptions& opt = {});

}  // namespace hi::lp
