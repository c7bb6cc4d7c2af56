#include "milp/solver.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"
#include "obs/timer.hpp"

namespace hi::milp {

namespace {

/// Distance of v from the nearest integer.
double fractionality(double v) {
  const double frac = v - std::floor(v);
  return std::min(frac, 1.0 - frac);
}

/// The variable to branch on: the first fractional integral variable in
/// `priority`, else the most fractional one in `ints`; -1 when x is
/// integral within tol.
int branch_variable(const std::vector<int>& priority,
                    const std::vector<int>& ints, const std::vector<double>& x,
                    double tol) {
  for (int v : priority) {
    if (fractionality(x[static_cast<std::size_t>(v)]) > tol &&
        std::find(ints.begin(), ints.end(), v) != ints.end()) {
      return v;
    }
  }
  int best = -1;
  double best_dist = tol;
  for (int v : ints) {
    const double dist = fractionality(x[static_cast<std::size_t>(v)]);
    if (dist > best_dist) {
      best_dist = dist;
      best = v;
    }
  }
  return best;
}

}  // namespace

void Solver::tighten(int v, double lower, double upper) {
  if (warm_) root_.tighten(v, lower, upper);
}

Solution Solver::solve(const Options& opt) {
  obs::ScopedTimer timer(opt.metrics, "milp.solve_s");
  Solution result = branch_and_bound(opt);
  if (opt.metrics != nullptr) {
    opt.metrics->counter("milp.solves").add(1);
    opt.metrics->counter("milp.bnb_nodes")
        .add(static_cast<std::uint64_t>(result.nodes));
    opt.metrics->counter("milp.lp_pivots")
        .add(static_cast<std::uint64_t>(result.lp_iterations));
  }
  return result;
}

Solution Solver::branch_and_bound(const Options& opt) {
  if (warm_) {
    HI_REQUIRE(opt.lp == lp_,
               "milp::Solver: a warm re-solve changed the LP options");
  } else {
    root_ = lp::Simplex(model_.lp(), opt.lp);
    lp_ = opt.lp;
    ints_ = model_.integral_variables();
  }
  const bool maximize = model_.lp().objective() == lp::Objective::kMaximize;
  // Internal comparisons are in minimize sense.
  const auto key = [&](double obj) { return maximize ? -obj : obj; };

  Solution result;
  bool have_incumbent = false;
  double incumbent_key = 0.0;
  // Depth first: `node` is the node being solved, first the root, then
  // node_; pending_[0, depth) are its waiting siblings, each its
  // parent's optimal simplex with the sibling's bound applied.
  lp::Simplex* node = &root_;
  std::size_t depth = 0;
  for (;;) {
    if (result.nodes >= opt.max_nodes) {
      result.status = lp::Status::kIterationLimit;
      return result;
    }
    ++result.nodes;
    const lp::Solution rel = node->solve();
    result.lp_iterations += rel.iterations;
    if (node == &root_) {
      warm_ = rel.status == lp::Status::kOptimal;
    }
    if (rel.status == lp::Status::kUnbounded ||
        rel.status == lp::Status::kIterationLimit) {
      // An unbounded relaxation has a continuous ray (the integral
      // variables are bounded), and every deeper node shares it.
      result.status = rel.status;
      return result;
    }
    // Bound-based pruning: the relaxation can only get worse deeper.
    const bool open = rel.status == lp::Status::kOptimal &&
                      !(have_incumbent &&
                        key(rel.objective) >= incumbent_key - opt.gap_tol);
    const int var =
        open ? branch_variable(opt.branch_priority, ints_, rel.x, opt.int_tol)
             : -1;
    if (open && var < 0) {
      // Integral: new incumbent (strictly better, by the pruning test).
      have_incumbent = true;
      incumbent_key = key(rel.objective);
      result.x = rel.x;
      for (int v : ints_) {
        result.x[static_cast<std::size_t>(v)] =
            std::round(result.x[static_cast<std::size_t>(v)]);
      }
      result.objective = rel.objective;
    }
    if (var >= 0) {
      // Branch.  The child nearest the fractional value goes first, in
      // node_ (the root stays intact for the next solve); its sibling
      // waits in a slot with a copy of this node's basis.
      if (depth == pending_.size()) {
        pending_.push_back(*node);
      } else {
        pending_[depth] = *node;
      }
      lp::Simplex& sibling = pending_[depth++];
      if (node == &root_) {
        node_ = root_;
        node = &node_;
      }
      const double v = rel.x[static_cast<std::size_t>(var)];
      const double down = std::floor(v);
      const double up = std::ceil(v);
      if (v - down <= 0.5) {
        sibling.tighten(var, up, lp::kInf);
        node->tighten(var, -lp::kInf, down);
      } else {
        sibling.tighten(var, -lp::kInf, down);
        node->tighten(var, up, lp::kInf);
      }
      continue;
    }
    if (depth == 0) break;
    std::swap(node_, pending_[--depth]);
    node = &node_;
  }
  result.status =
      have_incumbent ? lp::Status::kOptimal : lp::Status::kInfeasible;
  return result;
}

Solution solve(const Model& model, const Options& opt) {
  return Solver(model).solve(opt);
}

}  // namespace hi::milp
