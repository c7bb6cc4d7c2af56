// hi-opt: mixed-integer linear model.
//
// A thin layer over hi::lp::Problem that marks variables as continuous,
// binary, or general-integer.  It has no product (AND-of-binaries)
// helper: the DSE encoding's cell columns are continuous and pinned by
// its convexity rows (dse/milp_encoding.hpp).  A cold solve reads the
// model's current state, so rows and bounds may change between solves;
// Algorithm 1's objective-level cut is a bound on the encoding's power
// column, which milp::Solver re-solves warm (milp/solver.hpp).
#pragma once

#include <string>
#include <vector>

#include "lp/problem.hpp"

namespace hi::milp {

/// Variable integrality class.
enum class VarType { kContinuous, kBinary, kInteger };

/// Mixed-integer model; see file comment.
class Model {
 public:
  /// Adds a continuous variable in [lower, upper] with the given objective
  /// coefficient; returns its index.
  int add_continuous(double lower, double upper, double cost,
                     std::string name = {});

  /// Adds a binary variable; returns its index.
  int add_binary(double cost, std::string name = {});

  /// Adds a general integer variable in [lower, upper]; returns its index.
  int add_integer(double lower, double upper, double cost,
                  std::string name = {});

  /// Adds a linear constraint; returns its row index.
  int add_constraint(std::vector<lp::Term> terms, lp::Sense sense, double rhs,
                     std::string name = {});

  /// Sets the optimization direction (default minimize).
  void set_objective(lp::Objective obj) { lp_.set_objective(obj); }

  /// Replaces the objective coefficient of a variable.
  void set_cost(int v, double cost) { lp_.set_cost(v, cost); }

  [[nodiscard]] const lp::Problem& lp() const { return lp_; }
  [[nodiscard]] lp::Problem& lp() { return lp_; }
  [[nodiscard]] VarType var_type(int v) const;
  [[nodiscard]] int num_variables() const { return lp_.num_variables(); }
  [[nodiscard]] int num_constraints() const { return lp_.num_constraints(); }

  /// Indices of all binary variables, in creation order.
  [[nodiscard]] std::vector<int> binary_variables() const;

  /// Indices of all integral (binary + integer) variables.
  [[nodiscard]] std::vector<int> integral_variables() const;

 private:
  lp::Problem lp_;
  std::vector<VarType> types_;
};

}  // namespace hi::milp
