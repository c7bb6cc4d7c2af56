#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/assert.hpp"

namespace hi::lp {

const char* to_string(Status s) {
  switch (s) {
    case Status::kOptimal:
      return "optimal";
    case Status::kInfeasible:
      return "infeasible";
    case Status::kUnbounded:
      return "unbounded";
    case Status::kIterationLimit:
      return "iteration-limit";
  }
  return "?";
}

namespace {

/// Where a nonbasic column with bounds [lo, hi] rests: its lower bound
/// when finite, else its upper bound, else 0 (a free column).
double resting_value(double lo, double hi) {
  if (std::isfinite(lo)) return lo;
  if (std::isfinite(hi)) return hi;
  return 0.0;
}

}  // namespace

Simplex::Simplex(const Problem& p, const SimplexOptions& opt)
    : opt_(opt),
      m_(p.num_constraints()),
      n_(p.num_variables() + p.num_constraints()),
      n_struct_(p.num_variables()),
      sense_(p.objective() == Objective::kMaximize ? -1.0 : 1.0) {
  const auto n = static_cast<std::size_t>(n_);
  t_.assign(static_cast<std::size_t>(m_) * n, 0.0);
  x_.assign(n, 0.0);
  lo_.assign(n, 0.0);
  hi_.assign(n, 0.0);
  cost_.assign(n, 0.0);
  d_.assign(n, 0.0);
  head_.assign(static_cast<std::size_t>(m_), -1);
  row_of_.assign(n, -1);
  for (int j = 0; j < n_struct_; ++j) {
    const Variable& v = p.variable(j);
    lo_[j] = v.lower;
    hi_[j] = v.upper;
    cost_[j] = sense_ * v.cost;
    x_[j] = resting_value(v.lower, v.upper);
  }
  // Row r reads a_r'x + s_r = b_r, and its logical s_r starts basic.
  for (int r = 0; r < m_; ++r) {
    const Constraint& c = p.constraint(r);
    double activity = 0.0;
    for (const Term& term : c.terms) {
      at(r, term.var) += term.coeff;
      activity += term.coeff * x_[term.var];
    }
    const int s = n_struct_ + r;
    at(r, s) = 1.0;
    lo_[s] = c.sense == Sense::kGreaterEqual ? -kInf : 0.0;
    hi_[s] = c.sense == Sense::kLessEqual ? kInf : 0.0;
    x_[s] = c.rhs - activity;
    head_[r] = s;
    row_of_[s] = r;
  }
}

void Simplex::tighten(int v, double lower, double upper) {
  HI_REQUIRE(v >= 0 && v < n_struct_, "tighten: bad variable " << v);
  const double lo = std::max(lo_[v], lower);
  const double hi = std::min(hi_[v], upper);
  if (lo > hi) {
    empty_ = true;
    return;
  }
  // A nonbasic variable stays on the side its reduced cost chose, so
  // the basis stays dual feasible.
  const bool at_upper = x_[v] == hi_[v] && x_[v] != lo_[v];
  lo_[v] = lo;
  hi_[v] = hi;
  if (basic(v)) return;
  const double value = at_upper ? hi : resting_value(lo, hi);
  const double delta = value - x_[v];
  for (int r = 0; r < m_; ++r) {
    x_[head_[r]] -= at(r, v) * delta;
  }
  x_[v] = value;
}

void Simplex::pivot(int pr, int pc) {
  double* row = &at(pr, 0);
  HI_ASSERT(std::fabs(row[pc]) > 0.0);
  const double inv = 1.0 / row[pc];
  // Only the pivot row's nonzero columns change in the other rows.
  nz_.clear();
  for (int j = 0; j < n_; ++j) {
    if (row[j] != 0.0) {
      row[j] *= inv;
      nz_.push_back(j);
    }
  }
  row[pc] = 1.0;
  for (int r = 0; r < m_; ++r) {
    if (r == pr) continue;
    double* other = &at(r, 0);
    const double f = other[pc];
    if (f == 0.0) continue;
    for (const int j : nz_) {
      other[j] -= f * row[j];
    }
    other[pc] = 0.0;  // kill residual rounding noise
  }
  if (const double f = d_[pc]; f != 0.0) {
    for (const int j : nz_) {
      d_[j] -= f * row[j];
    }
  }
  d_[pc] = 0.0;
  row_of_[head_[pr]] = -1;
  head_[pr] = pc;
  row_of_[pc] = pr;
}

void Simplex::price(const std::vector<double>& cost) {
  d_.assign(cost.begin(), cost.end());
  for (int r = 0; r < m_; ++r) {
    const double cb = cost[head_[r]];
    if (cb == 0.0) continue;
    for (int j = 0; j < n_; ++j) {
      d_[j] -= cb * at(r, j);
    }
  }
}

Status Simplex::primal(int& iters, int& bland, int max_iters) {
  const double tol = opt_.tol;
  const int budget = opt_.dantzig_stall_budget > 0 ? opt_.dantzig_stall_budget
                                                   : 20 * (m_ + n_);
  for (int phase_iters = 0;; ++phase_iters) {
    if (iters >= max_iters) {
      return Status::kIterationLimit;
    }
    // Entering column: an improving reduced cost with room to move that
    // way.  Dantzig picks the steepest, Bland the smallest index.
    const bool bland_mode = phase_iters >= budget;
    int enter = -1;
    double steepest = 0.0;
    for (int j = 0; j < n_; ++j) {
      if (basic(j)) continue;
      const double dj = d_[j];
      if (!((dj < -tol && x_[j] < hi_[j]) || (dj > tol && x_[j] > lo_[j]))) {
        continue;
      }
      if (bland_mode) {
        enter = j;
        break;
      }
      if (std::fabs(dj) > steepest) {
        steepest = std::fabs(dj);
        enter = j;
      }
    }
    if (enter < 0) {
      return Status::kOptimal;
    }
    const double dir = d_[enter] < 0.0 ? 1.0 : -1.0;
    // Ratio test over the basic variables' bounds, Bland tie-break on
    // the basic column; the entering column's own bound flip wins ties.
    int leave = -1;
    double ratio = 0.0;
    for (int r = 0; r < m_; ++r) {
      const double a = dir * at(r, enter);
      if (std::fabs(a) <= tol) continue;
      const int k = head_[r];
      const double bound = a > 0.0 ? lo_[k] : hi_[k];
      if (!std::isfinite(bound)) continue;
      const double rk = std::max(0.0, (x_[k] - bound) / a);
      if (leave < 0 || rk < ratio - tol ||
          (std::fabs(rk - ratio) <= tol && k < head_[leave])) {
        leave = r;
        ratio = rk;
      }
    }
    const double flip = hi_[enter] - lo_[enter];
    const bool flips = leave < 0 || flip <= ratio;
    if (flips && !std::isfinite(flip)) {
      return Status::kUnbounded;
    }
    const double step = flips ? flip : ratio;
    if (step != 0.0) {
      for (int r = 0; r < m_; ++r) {
        x_[head_[r]] -= dir * step * at(r, enter);
      }
    }
    ++iters;
    if (bland_mode) ++bland;
    if (flips) {
      x_[enter] = dir > 0.0 ? hi_[enter] : lo_[enter];
      continue;
    }
    x_[enter] += dir * step;
    const int k = head_[leave];
    x_[k] = dir * at(leave, enter) > 0.0 ? lo_[k] : hi_[k];
    pivot(leave, enter);
  }
}

Status Simplex::dual(int& iters, int& bland, int max_iters) {
  const double tol = opt_.tol;
  const int budget = opt_.dantzig_stall_budget > 0 ? opt_.dantzig_stall_budget
                                                   : 20 * (m_ + n_);
  for (int phase_iters = 0;; ++phase_iters) {
    if (iters >= max_iters) {
      return Status::kIterationLimit;
    }
    // Leaving row: a basic variable outside its bounds.  Dantzig picks
    // the largest violation, Bland the smallest basic column.
    const bool bland_mode = phase_iters >= budget;
    int leave = -1;
    double worst = 0.0;
    for (int r = 0; r < m_; ++r) {
      const int k = head_[r];
      const double viol = std::max(lo_[k] - x_[k], x_[k] - hi_[k]);
      if (viol <= opt_.feas_tol) continue;
      if (bland_mode ? leave < 0 || k < head_[leave] : viol > worst) {
        leave = r;
        worst = viol;
      }
    }
    if (leave < 0) {
      return Status::kOptimal;
    }
    const int k = head_[leave];
    const bool rise = x_[k] < lo_[k];
    const double target = rise ? lo_[k] : hi_[k];
    // Entering column: one that moves x_k toward its bound, chosen by
    // the smallest |d_j / alpha_j| so every reduced cost keeps its sign.
    // Ties: the larger |alpha_j| (Dantzig) or the smaller j (Bland).
    int enter = -1;
    double ratio = 0.0;
    double pivot_size = 0.0;
    for (int j = 0; j < n_; ++j) {
      if (basic(j) || lo_[j] == hi_[j]) continue;
      // x_k moves by -at(leave, j) per unit of x_j.
      const double alpha = rise ? -at(leave, j) : at(leave, j);
      double dj = 0.0;
      if (alpha > tol && x_[j] < hi_[j]) {
        dj = std::max(d_[j], 0.0);
      } else if (alpha < -tol && x_[j] > lo_[j]) {
        dj = std::max(-d_[j], 0.0);
      } else {
        continue;
      }
      const double size = std::fabs(alpha);
      const double rj = dj / size;
      if (enter < 0 || rj < ratio - tol ||
          (!bland_mode && std::fabs(rj - ratio) <= tol && size > pivot_size)) {
        enter = j;
        ratio = rj;
        pivot_size = size;
      }
    }
    if (enter < 0) {
      return Status::kInfeasible;
    }
    const double step = (x_[k] - target) / at(leave, enter);
    for (int r = 0; r < m_; ++r) {
      x_[head_[r]] -= step * at(r, enter);
    }
    x_[enter] += step;
    x_[k] = target;
    pivot(leave, enter);
    ++iters;
    if (bland_mode) ++bland;
  }
}

Status Simplex::cold(int& iters, int& bland, int max_iters) {
  // Phase 1: an artificial on every row whose logical starts outside
  // its bounds; the logical moves to the violated bound.
  const int n0 = n_;
  std::vector<int> rows;
  for (int r = 0; r < m_; ++r) {
    const int s = head_[r];
    if (x_[s] < lo_[s] || x_[s] > hi_[s]) rows.push_back(r);
  }
  if (!rows.empty()) {
    resize_columns(n0 + static_cast<int>(rows.size()));
    std::vector<double> phase1(static_cast<std::size_t>(n_), 0.0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const int r = rows[i];
      const int s = head_[r];
      const int a = n0 + static_cast<int>(i);
      const double bound = x_[s] < lo_[s] ? lo_[s] : hi_[s];
      // Scale the row so the artificial enters with coefficient +1 at a
      // positive value.
      const double sign = x_[s] > bound ? 1.0 : -1.0;
      for (int j = 0; j < n0; ++j) {
        at(r, j) *= sign;
      }
      at(r, a) = 1.0;
      x_[a] = sign * (x_[s] - bound);
      x_[s] = bound;
      row_of_[s] = -1;
      head_[r] = a;
      row_of_[a] = r;
      phase1[a] = 1.0;
    }
    price(phase1);
    const Status st = primal(iters, bland, max_iters);
    if (st != Status::kOptimal) {
      return st;
    }
    double infeasibility = 0.0;
    for (int a = n0; a < n_; ++a) {
      infeasibility += x_[a];
    }
    if (infeasibility > opt_.feas_tol) {
      return Status::kInfeasible;
    }
    // Pivot the artificials still basic (at ~0) out of the basis.
    // [A | I] has full row rank, so each such row has a nonzero outside
    // the artificial block; take the largest.
    for (int r = 0; r < m_; ++r) {
      if (head_[r] < n0) continue;
      int pc = -1;
      double size = 0.0;
      for (int j = 0; j < n0; ++j) {
        if (std::fabs(at(r, j)) > size) {
          size = std::fabs(at(r, j));
          pc = j;
        }
      }
      HI_ASSERT(pc >= 0);
      pivot(r, pc);
    }
    resize_columns(n0);
  }
  price(cost_);
  return primal(iters, bland, max_iters);
}

void Simplex::resize_columns(int n) {
  std::vector<double> t(static_cast<std::size_t>(m_) * n, 0.0);
  const int keep = std::min(n, n_);
  for (int r = 0; r < m_; ++r) {
    std::copy_n(&at(r, 0), keep, &t[static_cast<std::size_t>(r) * n]);
  }
  t_.swap(t);
  n_ = n;
  const auto cols = static_cast<std::size_t>(n);
  x_.resize(cols, 0.0);
  lo_.resize(cols, 0.0);  // artificials live in [0, inf)
  hi_.resize(cols, kInf);
  cost_.resize(cols, 0.0);
  d_.resize(cols, 0.0);
  row_of_.resize(cols, -1);
}

Solution Simplex::solve() {
  HI_REQUIRE(state_ != State::kFailed,
             "Simplex::solve: the previous solve was not optimal");
  Solution sol;
  if (empty_) {
    state_ = State::kFailed;
    sol.status = Status::kInfeasible;
    return sol;
  }
  const int max_iters = opt_.max_iterations > 0 ? opt_.max_iterations
                                                : 200 + 50 * (m_ + n_);
  sol.status = state_ == State::kFresh
                   ? cold(sol.iterations, sol.bland_pivots, max_iters)
                   : dual(sol.iterations, sol.bland_pivots, max_iters);
  if (sol.status != Status::kOptimal) {
    state_ = State::kFailed;
    return sol;
  }
  state_ = State::kOptimal;
  sol.x.assign(x_.begin(), x_.begin() + n_struct_);
  // sense * (sense * cost) is the original cost exactly, so this is
  // Problem::objective_value(x) bit for bit.
  for (int j = 0; j < n_struct_; ++j) {
    sol.objective += sense_ * cost_[j] * x_[j];
  }
  return sol;
}

Solution solve_simplex(const Problem& p, const SimplexOptions& opt) {
  return Simplex(p, opt).solve();
}

}  // namespace hi::lp
