#include "dse/level_walk.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"
#include "model/power.hpp"
#include "obs/timer.hpp"

namespace hi::dse {

namespace {

/// The sound termination certificate (TerminationBound::kSoundFloor,
/// DESIGN.md §5): per cell of the (Tx level, routing, N) grid, the
/// Γ-protected analytic cost and, per rung, model::measured_power_floor_mw
/// at the rung's PDRmin plus the same protection.  The floor holds for
/// every channel realization, so it bounds the worst one.
class SoundFloor {
 public:
  /// Builds the cell costs and one floor per rung of `pdr_mins` (rung
  /// indices follow its order).
  SoundFloor(const model::Scenario& scenario, const net::SimParams& sim,
             int gamma, const std::vector<double>& pdr_mins)
      : rungs_(pdr_mins.size()) {
    for (int lvl = 0; lvl < scenario.chip.num_tx_levels(); ++lvl) {
      for (const auto rt :
           {model::RoutingProtocol::kStar, model::RoutingProtocol::kMesh}) {
        for (int n = scenario.min_nodes; n <= scenario.max_nodes; ++n) {
          model::Topology t;
          for (int i = 0; i < n; ++i) t.set(i, true);
          // Placement and MAC never enter the cost or the floor — any
          // representative topology of the right size will do.
          const model::NetworkConfig cell =
              scenario.make_config(t, lvl, model::MacProtocol::kCsma, rt);
          const double prot = model::robust_protection_mw(cell, gamma);
          cost_mw_.push_back(model::node_power_mw(cell) + prot);
          for (double pdr_min : pdr_mins) {
            floor_mw_.push_back(model::measured_power_floor_mw(
                                    cell, pdr_min, sim.duration_s,
                                    sim.gen_guard_s) +
                                prot);
          }
        }
      }
    }
  }

  /// True when every cell at or above the analytic `level_mw` — the
  /// level just proposed included — has its rung-`rung` floor strictly
  /// above `incumbent_mw`: no further simulation can win or tie.
  [[nodiscard]] bool certifies(double level_mw, std::size_t rung,
                               double incumbent_mw) const {
    // Cells strictly above the level minus a hair, i.e. at or above it.
    const double above_mw = level_mw - 2.0 * 1e-12;
    double lo = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < cost_mw_.size(); ++c) {
      if (cost_mw_[c] > above_mw + 1e-12) {
        lo = std::min(lo, floor_mw_[c * rungs_ + rung]);
      }
    }
    return lo > incumbent_mw;
  }

 private:
  std::size_t rungs_;
  std::vector<double> cost_mw_;   ///< per cell: Γ-protected analytic P̄
  std::vector<double> floor_mw_;  ///< per cell × rung: floor + protection
};

/// Paper line 5: P̄*/α(S*, PDRmin) > P̄min, with the uniform loss
/// discount applied to the incumbent's own cell.
bool alpha_stops(const WalkRung& r, double level_mw, double kappa) {
  return level_mw / model::alpha_factor(r.best.cfg, r.pdr_min, kappa) >
         r.best.power_mw;
}

/// The explorer adapter: the walk at one rung, opt.pdr_min; the history
/// holds every evaluated design and iterations counts the levels.
ExplorationResult walk_explorer(ExplorerKind kind,
                                const model::Scenario& scenario,
                                Evaluator& eval, const ExplorationOptions& opt,
                                int patience) {
  RunScope scope(kind, eval, opt);
  ExplorationResult res;
  WalkOptions walk;
  walk.pdr_mins = {opt.pdr_min};
  walk.patience = patience;
  walk.on_level = [&](const MilpRound& round,
                      const std::vector<RobustEvaluation>& revs,
                      const WalkResult& state) {
    // Room for the whole level at once, still growing geometrically.
    const std::size_t need = res.history.size() + revs.size();
    if (need > res.history.capacity()) {
      res.history.reserve(std::max(need, 2 * res.history.capacity()));
    }
    for (std::size_t i = 0; i < revs.size(); ++i) {
      res.history.push_back(robust_record(round.candidates[i], revs[i]));
    }
    const WalkRung& rung = state.rungs[0];
    if (rung.feasible) {
      adopt_incumbent(res, rung.best);
    }
    scope.progress(state.levels_evaluated, res.feasible, res.best_power_mw);
  };
  res.iterations = walk_levels(scenario, eval, scope, walk).levels_evaluated;
  scope.finish(res);
  return res;
}

}  // namespace

WalkResult walk_levels(const model::Scenario& scenario, Evaluator& eval,
                       const RunScope& scope, const WalkOptions& opt) {
  const ExplorationOptions& run = scope.options();
  // The α discount has no sound robust reading (DESIGN.md §13).
  HI_REQUIRE(run.bound != TerminationBound::kPaperAlpha ||
                 !run.robust.active(),
             "robust Algorithm 1 does not support the kPaperAlpha bound");
  // RunSim engine: each level's whole alternative-optima set is
  // batch-evaluated at once (bit-identical to serial at any thread
  // count; see exec::BatchEvaluator).
  RobustBatch batch(eval, scope.threads(), run.robust);
  MilpEncoding encoding(scenario, run.robust.gamma);
  // The run's registry, so the milp.* counters land in the run's
  // snapshot delta (ExplorationResult/SweepResult::milp_bnb_nodes).
  obs::MetricsRegistry& reg = scope.registry();
  milp::Options milp_opt;
  milp_opt.metrics = &reg;
  const int max_levels = run.budget >= 0 ? run.budget : 10'000;
  const SoundFloor floor(scenario, eval.settings().sim, run.robust.gamma,
                         opt.pdr_mins);
  const auto close = [&](WalkRung& r) {
    r.open = false;
    reg.counter("walk.rungs_closed").add(1);
  };

  WalkResult res;
  res.rungs.resize(opt.pdr_mins.size());
  for (std::size_t ri = 0; ri < res.rungs.size(); ++ri) {
    res.rungs[ri].pdr_min = opt.pdr_mins[ri];
  }
  const auto any_open = [&] {
    return std::any_of(res.rungs.begin(), res.rungs.end(),
                       [](const WalkRung& r) { return r.open; });
  };

  while (res.levels_evaluated < max_levels) {
    // ---- RunMILP ------------------------------------------------------
    const MilpRound round = [&] {
      obs::ScopedTimer timer(&reg, "walk.milp_s");
      return encoding.run_milp(milp_opt);
    }();
    if (round.candidates.empty()) {
      // MILP dry: every feasible design has been evaluated, so every
      // incumbent is final and rungs without one are infeasible.
      for (WalkRung& r : res.rungs) r.open = false;
      break;
    }
    ++res.levels_proposed;

    // ---- stop test: close every rung its bound certifies --------------
    for (std::size_t ri = 0; ri < res.rungs.size(); ++ri) {
      WalkRung& r = res.rungs[ri];
      if (!r.open || !r.feasible) continue;
      bool stop = false;
      switch (run.bound) {
        case TerminationBound::kNone:
          break;
        case TerminationBound::kSoundFloor:
          stop = floor.certifies(round.power_mw, ri, r.best.power_mw);
          break;
        case TerminationBound::kPaperAlpha:
          stop = alpha_stops(r, round.power_mw, run.alpha_kappa);
          break;
      }
      if (stop) close(r);
    }
    if (!any_open()) break;

    // ---- RunSim and Sort ------------------------------------------------
    const std::vector<RobustEvaluation> revs = [&] {
      obs::ScopedTimer timer(&reg, "walk.sim_s");
      return batch.evaluate(round.candidates);
    }();
    ++res.levels_evaluated;
    std::vector<DesignPoint> points;
    points.reserve(revs.size());
    for (std::size_t i = 0; i < revs.size(); ++i) {
      points.push_back(make_point(round.candidates[i], revs[i]));
    }
    for (WalkRung& r : res.rungs) {
      if (!r.open) continue;
      bool changed = false;
      for (const DesignPoint& p : points) {
        if (p.pdr >= r.pdr_min && (!r.feasible || lex_before(p, r.best))) {
          r.feasible = true;
          r.best = p;
          changed = true;
        }
      }
      if (r.feasible) {
        r.stale_levels = changed ? 0 : r.stale_levels + 1;
      }
    }
    if (opt.on_level) {
      opt.on_level(round, revs, res);
    }

    // ---- stop test: patience --------------------------------------------
    for (WalkRung& r : res.rungs) {
      if (opt.patience > 0 && r.open && r.stale_levels >= opt.patience) {
        close(r);
      }
    }
    if (!any_open()) break;

    // ---- Update: cut the exhausted level --------------------------------
    encoding.add_power_cut_above(round.power_mw);
    reg.counter("walk.cuts_added").add(1);
  }
  res.complete = !any_open();
  return res;
}

// Algorithm 1: the walk at one rung under ExplorationOptions::bound
// (line 5 of the paper's listing).
ExplorationResult run_algorithm1(const model::Scenario& scenario,
                                 Evaluator& eval,
                                 const ExplorationOptions& opt) {
  return walk_explorer(ExplorerKind::kAlgorithm1, scenario, eval, opt,
                       /*patience=*/0);
}

/// Levels the fast-ILP heuristic climbs past a feasible incumbent
/// without a change before it stops: larger is closer to Algorithm 1's
/// exactness, smaller is faster.  store::options_fingerprint hashes it
/// as a constant; changing it here must change it there too.
constexpr int kPatience = 2;

// The fast-ILP heuristic: the walk at one rung with the patience rule
// instead of a termination bound (see run_fast_ilp's declaration).
ExplorationResult run_fast_ilp(const model::Scenario& scenario,
                               Evaluator& eval,
                               const ExplorationOptions& opt) {
  ExplorationOptions none = opt;
  none.bound = TerminationBound::kNone;
  return walk_explorer(ExplorerKind::kFastIlp, scenario, eval, none,
                       kPatience);
}

}  // namespace hi::dse
