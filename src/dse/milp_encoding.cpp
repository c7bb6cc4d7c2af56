#include "dse/milp_encoding.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "common/assert.hpp"
#include "model/power.hpp"

namespace hi::dse {

double MilpEncoding::cell_cost_mw(int level, model::RoutingProtocol rt,
                                  int n_nodes) const {
  const model::RadioConfig radio = scenario_.chip.configure(level);
  // The Γ-protection is exactly 0.0 when gamma_ == 0, so the nominal
  // encoding's costs are bit-identical to the pre-robust ones.
  return scenario_.app.baseline_mw +
         model::radio_power_mw(radio, scenario_.app, rt, n_nodes) +
         model::robust_protection_mw(radio, scenario_.app, rt, n_nodes,
                                     gamma_);
}

MilpEncoding::MilpEncoding(const model::Scenario& scenario, int gamma)
    : scenario_(scenario), gamma_(gamma) {
  HI_REQUIRE(gamma_ >= 0, "gamma must be >= 0, got " << gamma_);
  HI_REQUIRE(scenario_.min_nodes >= 2, "need at least two nodes");
  HI_REQUIRE(scenario_.max_nodes >= scenario_.min_nodes,
             "max_nodes below min_nodes");
  HI_REQUIRE(scenario_.max_nodes <= channel::kNumLocations,
             "max_nodes exceeds the number of locations");

  model_.set_objective(lp::Objective::kMinimize);

  // --- Decision binaries ---------------------------------------------------
  for (int i = 0; i < channel::kNumLocations; ++i) {
    n_vars_.push_back(model_.add_binary(0.0, "n" + std::to_string(i)));
  }
  for (int k = 0; k < scenario_.chip.num_tx_levels(); ++k) {
    p_vars_.push_back(model_.add_binary(0.0, "p" + std::to_string(k + 1)));
  }
  model_.add_binary(0.0, "mac_tdma");  // free: Eq. (9) ignores the MAC
  rt_star_var_ = model_.add_binary(0.0, "rt_star");
  rt_mesh_var_ = model_.add_binary(0.0, "rt_mesh");
  for (int n = scenario_.min_nodes; n <= scenario_.max_nodes; ++n) {
    z_vars_.push_back(model_.add_binary(0.0, "zN" + std::to_string(n)));
  }
  topologies_by_count_.resize(z_vars_.size());
  for (const model::Topology& t : scenario_.feasible_topologies()) {
    const auto zi = static_cast<std::size_t>(t.count() - scenario_.min_nodes);
    topologies_by_count_[zi].push_back(t);
  }

  // --- Selection constraints ----------------------------------------------
  {
    std::vector<lp::Term> terms;
    for (int p : p_vars_) terms.push_back({p, 1.0});
    model_.add_constraint(terms, lp::Sense::kEqual, 1.0, "one_tx_level");
  }
  model_.add_constraint({{rt_star_var_, 1.0}, {rt_mesh_var_, 1.0}},
                        lp::Sense::kEqual, 1.0, "one_routing");
  {
    std::vector<lp::Term> terms;
    for (int z : z_vars_) terms.push_back({z, 1.0});
    model_.add_constraint(terms, lp::Sense::kEqual, 1.0, "one_node_count");
  }
  {
    // Σ n_i = Σ N z_N  links the count indicators to the placement.
    std::vector<lp::Term> terms;
    for (int n : n_vars_) terms.push_back({n, 1.0});
    for (std::size_t zi = 0; zi < z_vars_.size(); ++zi) {
      terms.push_back(
          {z_vars_[zi], -static_cast<double>(scenario_.min_nodes +
                                             static_cast<int>(zi))});
    }
    model_.add_constraint(terms, lp::Sense::kEqual, 0.0, "count_link");
  }

  // --- Topological constraints (Sec. 4.1) ----------------------------------
  for (int loc : scenario_.required_locations) {
    model_.add_constraint({{n_vars_[static_cast<std::size_t>(loc)], 1.0}},
                          lp::Sense::kEqual, 1.0, "required");
  }
  for (const model::CoverageConstraint& c : scenario_.coverage) {
    std::vector<lp::Term> terms;
    for (int loc : c.locations) {
      terms.push_back({n_vars_[static_cast<std::size_t>(loc)], 1.0});
    }
    model_.add_constraint(terms, lp::Sense::kGreaterEqual, 1.0, c.reason);
  }
  // Placement dependencies, the paper's n_j - n_i <= 0 example.
  for (const model::DependencyConstraint& d : scenario_.dependencies) {
    model_.add_constraint(
        {{n_vars_[static_cast<std::size_t>(d.if_used)], 1.0},
         {n_vars_[static_cast<std::size_t>(d.then_used)], -1.0}},
        lp::Sense::kLessEqual, 0.0, d.reason);
  }
  // A star topology needs its coordinator placed: n_coor >= rt_star.
  model_.add_constraint(
      {{n_vars_[static_cast<std::size_t>(scenario_.coordinator)], 1.0},
       {rt_star_var_, -1.0}},
      lp::Sense::kGreaterEqual, 0.0, "star_coordinator");

  // --- Cost linearization over the (level, routing, N) grid ----------------
  // Each cell y is a plain [0, 1] column.  The convexity rows below give
  // y <= p_k, y <= rt and y <= z_N, and when (p, rt, z) is integral they
  // leave y mass only on the one selected cell, which one_cell sets to 1:
  // the product rows y = p_k ∧ rt ∧ z_N would all be implied.
  std::vector<lp::Term> y_sum;
  std::vector<std::vector<lp::Term>> by_level(
      static_cast<std::size_t>(scenario_.chip.num_tx_levels()));
  std::vector<lp::Term> by_star, by_mesh;
  std::vector<std::vector<lp::Term>> by_count(z_vars_.size());
  for (int k = 0; k < scenario_.chip.num_tx_levels(); ++k) {
    for (const model::RoutingProtocol rt :
         {model::RoutingProtocol::kStar, model::RoutingProtocol::kMesh}) {
      for (std::size_t zi = 0; zi < z_vars_.size(); ++zi) {
        const int n_nodes = scenario_.min_nodes + static_cast<int>(zi);
        const int y = model_.add_continuous(
            0.0, 1.0, 0.0,
            "y_p" + std::to_string(k + 1) + "_" + model::to_string(rt) +
                "_N" + std::to_string(n_nodes));
        cells_.push_back(Cell{y, cell_cost_mw(k, rt, n_nodes)});
        y_sum.push_back({y, 1.0});
        by_level[static_cast<std::size_t>(k)].push_back({y, 1.0});
        (rt == model::RoutingProtocol::kStar ? by_star : by_mesh)
            .push_back({y, 1.0});
        by_count[zi].push_back({y, 1.0});
      }
    }
  }
  model_.add_constraint(y_sum, lp::Sense::kEqual, 1.0, "one_cell");
  // Convexity rows: the cell mass on each factor value equals that
  // factor's binary.  They pin the cells (above) and make the LP
  // relaxation nearly integral.
  for (int k = 0; k < scenario_.chip.num_tx_levels(); ++k) {
    auto& terms = by_level[static_cast<std::size_t>(k)];
    terms.push_back({p_vars_[static_cast<std::size_t>(k)], -1.0});
    model_.add_constraint(std::move(terms), lp::Sense::kEqual, 0.0,
                          "cell_level_link");
  }
  by_star.push_back({rt_star_var_, -1.0});
  model_.add_constraint(std::move(by_star), lp::Sense::kEqual, 0.0,
                        "cell_star_link");
  by_mesh.push_back({rt_mesh_var_, -1.0});
  model_.add_constraint(std::move(by_mesh), lp::Sense::kEqual, 0.0,
                        "cell_mesh_link");
  for (std::size_t zi = 0; zi < z_vars_.size(); ++zi) {
    by_count[zi].push_back({z_vars_[zi], -1.0});
    model_.add_constraint(std::move(by_count[zi]), lp::Sense::kEqual, 0.0,
                          "cell_count_link");
  }

  // --- The power column P̄ = Σ cost·y, the objective ------------------------
  // Algorithm 1's cuts raise its lower bound, so the model keeps its shape
  // for the whole walk and each round re-solves the last root warm.
  pbar_var_ = model_.add_continuous(0.0, lp::kInf, 1.0, "pbar");
  {
    std::vector<lp::Term> terms{{pbar_var_, 1.0}};
    for (const Cell& c : cells_) {
      terms.push_back({c.y_var, -c.cost_mw});
    }
    model_.add_constraint(std::move(terms), lp::Sense::kEqual, 0.0,
                          "pbar_def");
  }

  // --- Cut separation ε -----------------------------------------------------
  std::set<double> costs;
  for (const Cell& c : cells_) {
    costs.insert(c.cost_mw);
  }
  double min_gap = *costs.rbegin() - *costs.begin();
  if (costs.size() >= 2) {
    double prev = *costs.begin();
    for (auto it = std::next(costs.begin()); it != costs.end(); ++it) {
      min_gap = std::min(min_gap, *it - prev);
      prev = *it;
    }
    epsilon_mw_ = min_gap / 2.0;
  } else {
    epsilon_mw_ = std::max(1e-9, *costs.begin() * 1e-9);
  }
  HI_ASSERT(epsilon_mw_ > 0.0);
}

MilpRound MilpEncoding::run_milp(const milp::Options& opt,
                                 int max_solutions) {
  MilpRound round = run_milp_impl(opt, max_solutions);
  if (opt.metrics != nullptr) {
    opt.metrics->counter("milp.pool_solutions")
        .add(round.candidates.size());
  }
  return round;
}

MilpRound MilpEncoding::run_milp_impl(const milp::Options& opt,
                                      int max_solutions) {
  milp::Options effective = opt;
  if (effective.branch_priority.empty()) {
    // The objective is fully determined by (p, rt, z); settle those
    // first, then the placement bits.
    effective.branch_priority = p_vars_;
    effective.branch_priority.push_back(rt_star_var_);
    effective.branch_priority.push_back(rt_mesh_var_);
    effective.branch_priority.insert(effective.branch_priority.end(),
                                     z_vars_.begin(), z_vars_.end());
  }
  // One branch-and-bound solve pins the optimal power level P̄*.  The
  // alternative optima are then expanded in closed form: P̄ depends only
  // on the (Tx level, routing, N) cell, and the remaining degrees of
  // freedom — the placement ν and the MAC bit — are constrained solely
  // by the scenario's topological rules, which feasible_topologies()
  // enumerates exactly (listed per node count in the constructor).
  const milp::Solution sol = solver_.solve(effective);
  MilpRound round;
  round.status = sol.status;
  round.bnb_nodes = sol.nodes;
  if (sol.status != lp::Status::kOptimal) {
    return round;
  }
  bool snapped = false;
  for (const Cell& cell : cells_) {
    if (std::fabs(cell.cost_mw - sol.objective) > epsilon_mw_ / 2.0) {
      continue;  // cell not at the optimal level (ties are all expanded)
    }
    // Distinct cell costs lie >= 2ε apart, so every matching cell has
    // the same cost bits.  Reporting those, not the LP's rounded
    // objective, keeps the cuts and stop tests off the pivot path.
    round.power_mw = cell.cost_mw;
    snapped = true;
    // Reconstruct which (level, routing, N) this cell encodes.
    const std::size_t idx = static_cast<std::size_t>(&cell - cells_.data());
    const std::size_t per_level = 2 * z_vars_.size();
    const int level = static_cast<int>(idx / per_level);
    const auto rt = (idx % per_level) / z_vars_.size() == 0
                        ? model::RoutingProtocol::kStar
                        : model::RoutingProtocol::kMesh;
    const auto& placements = topologies_by_count_[idx % z_vars_.size()];
    for (const model::Topology& t : placements) {
      if (rt == model::RoutingProtocol::kStar &&
          !t.has(scenario_.coordinator)) {
        continue;
      }
      for (const auto mac :
           {model::MacProtocol::kCsma, model::MacProtocol::kTdma}) {
        round.candidates.push_back(scenario_.make_config(t, level, mac, rt));
        if (static_cast<int>(round.candidates.size()) >= max_solutions) {
          return round;
        }
      }
    }
  }
  HI_ASSERT_MSG(snapped && !round.candidates.empty(),
                "optimal MILP level " << sol.objective
                                      << " expanded to no configuration");
  return round;
}

void MilpEncoding::add_power_cut_above(double level_mw) {
  const double lower = std::max(model_.lp().variable(pbar_var_).lower,
                                level_mw + epsilon_mw_);
  model_.lp().set_bounds(pbar_var_, lower, lp::kInf);
  solver_.tighten(pbar_var_, lower, lp::kInf);
  // Propagate the bound through pbar_def: an integral point carries
  // y = 1 on exactly one cell, so a cell cheaper than the bound is
  // excluded already and closing it removes no integer point.  Without
  // it the relaxation meets the bound with a fractional mix of a cheaper
  // and a dearer cell; with it the root's optimum is the next level.
  for (const Cell& c : cells_) {
    if (c.cost_mw < lower) {
      model_.lp().set_bounds(c.y_var, 0.0, 0.0);
      solver_.tighten(c.y_var, 0.0, 0.0);
    }
  }
}

std::vector<double> MilpEncoding::achievable_power_levels() const {
  std::set<double> costs;
  for (const Cell& c : cells_) {
    costs.insert(c.cost_mw);
  }
  return {costs.begin(), costs.end()};
}

}  // namespace hi::dse
