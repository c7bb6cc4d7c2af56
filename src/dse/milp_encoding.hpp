// hi-opt: MILP encoding of the relaxed problem P̃ (Sec. 3).
//
// Decision binaries:
//   n_i   (i in 0..M-1)  — location i carries a node           (ν)
//   p_k   (k per level)  — Tx power level selection, Σ p_k = 1 (χrd)
//   mac   — 0 = CSMA, 1 = TDMA                                 (χMAC)
//   rt_star / rt_mesh, rt_star + rt_mesh = 1                   (χrt)
//   z_N   (N in [min_nodes, max_nodes]) — node-count indicator,
//         Σ z_N = 1 and Σ n_i = Σ N z_N.
//
// The approximate power P̄ of Eq. (9) is nonlinear in (p, rt, N) — the
// mesh term carries NreTx(N) = N²-4N+5 — so it is linearized exactly
// over the finite (k, routing, N) grid: one continuous cell column
// y[k][rt][N] in [0, 1] per cell, Σ y = 1, and convexity rows that tie
// the cell mass on each factor value to its binary (Σ_{rt,N} y[k] = p_k,
// Σ_{k,N} y[rt] = rt, Σ_{k,rt} y[N] = z_N).  Those rows already make y
// the indicator p_k ∧ rt ∧ z_N whenever (p, rt, z) is integral, so the
// encoding adds no product rows (DESIGN.md §1, `hi::milp` row).  One
// continuous column P̄ >= 0 is the objective, tied to the cells by the
// row P̄ - Σ cost(cell)·y(cell) = 0.  The MAC bit does not enter Eq. (9)
// (the coarse model ignores MAC overheads), so every power-optimal cell
// yields both MAC options; run_milp expands the tied optima in closed
// form from the feasible placements of each node count, listed once at
// construction.
//
// Algorithm 1's Update step (line 11) is the cut  P̄ >= P̄* + ε, where ε
// is half the smallest gap between distinct cell costs, which exactly
// removes the current optimum level and nothing more.  The cut raises
// P̄'s lower bound and closes (upper bound 0) every cell cheaper than
// it: an integral point has one cell at y = 1, so those cells are
// excluded already, and closing them keeps the LP relaxation tight at
// the next level (DESIGN.md §5).  Only bounds change, so the model
// keeps its shape for the whole walk, and the encoding's milp::Solver
// re-solves the previous round's root with the dual simplex instead of
// starting cold.
#pragma once

#include <vector>

#include "milp/solver.hpp"
#include "model/design_space.hpp"

namespace hi::dse {

/// Result of one RunMILP call: the set S of candidate configurations
/// sharing the minimum approximate power P̄*.
struct MilpRound {
  lp::Status status = lp::Status::kInfeasible;
  double power_mw = 0.0;  ///< P̄* (includes the baseline Pbl)
  std::vector<model::NetworkConfig> candidates;  ///< decoded set S
  int bnb_nodes = 0;  ///< branch-and-bound nodes spent this round
};

/// See file comment.  One encoding instance lives across all Algorithm-1
/// iterations, accumulating power cuts.  Its solver keeps the root
/// between rounds, so the LP options (milp::Options::lp) of the first
/// round hold for the whole walk.
class MilpEncoding {
 public:
  /// `gamma` > 0 builds the Γ-robust counterpart (DESIGN.md §13): every
  /// cell cost carries its Bertsimas–Sim protection term
  /// model::robust_protection_mw(level, routing, N, Γ) — the worst sum
  /// of Γ per-link loss deviations, a closed form because a cell's
  /// links deviate identically — so the MILP proposes levels ordered by
  /// robust power and the cut separation ε is recomputed over the
  /// protected costs.  gamma == 0 (the default) adds exactly 0.0 to
  /// every cost: the encoding is bit-identical to the nominal one.
  explicit MilpEncoding(const model::Scenario& scenario, int gamma = 0);

  /// The deviation budget this encoding was built with.
  [[nodiscard]] int gamma() const { return gamma_; }

  /// Solves the current relaxed problem and decodes all optima.  When
  /// opt.metrics is set, additionally records the decoded pool size as
  /// the `milp.pool_solutions` counter (the solver itself records the
  /// milp.solves / milp.bnb_nodes / milp.lp_pivots counters).
  [[nodiscard]] MilpRound run_milp(const milp::Options& opt = {},
                                   int max_solutions = 4096);

  /// The cut P̄ >= level + ε (Update step): raises P̄'s lower bound to
  /// level + ε unless an earlier cut already put it higher, and closes
  /// every cell whose cost lies below that bound.
  void add_power_cut_above(double level_mw);

  /// The cut separation ε (half the smallest distinct-cost gap).
  [[nodiscard]] double epsilon_mw() const { return epsilon_mw_; }

  /// All distinct achievable values of the approximate power P̄ over the
  /// (tx level, routing, N) grid, ascending.  Useful for tests/benches.
  [[nodiscard]] std::vector<double> achievable_power_levels() const;

  [[nodiscard]] const milp::Model& model() const { return model_; }

 private:
  [[nodiscard]] MilpRound run_milp_impl(const milp::Options& opt,
                                        int max_solutions);
  [[nodiscard]] double cell_cost_mw(int level, model::RoutingProtocol rt,
                                    int n_nodes) const;

  model::Scenario scenario_;
  int gamma_ = 0;  ///< Bertsimas–Sim deviation budget (0 = nominal)
  milp::Model model_;
  std::vector<int> n_vars_;   ///< per location
  std::vector<int> p_vars_;   ///< per Tx level
  int rt_star_var_ = -1;
  int rt_mesh_var_ = -1;
  std::vector<int> z_vars_;   ///< per node count (min..max)
  /// Feasible topologies per node count (min..max), in mask order.
  std::vector<std::vector<model::Topology>> topologies_by_count_;
  struct Cell {
    int y_var;       ///< cell column, the indicator at integral points
    double cost_mw;  ///< P̄ when this cell is active
  };
  std::vector<Cell> cells_;
  int pbar_var_ = -1;  ///< the power column P̄, the objective
  double epsilon_mw_ = 0.0;
  milp::Solver solver_{model_};  ///< keeps the root across rounds
};

}  // namespace hi::dse
