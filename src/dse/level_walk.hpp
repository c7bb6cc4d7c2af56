// hi-opt: the MILP level walk — the one loop behind Algorithm 1, the
// fast-ILP heuristic and hi::pareto's PDRmin ladder (DESIGN.md §5).
//
// Each level: RunMILP proposes every design at the cheapest remaining
// (Γ-protected) analytic power, the open rungs' bounds are tested,
// RunSim evaluates the level through dse::RobustBatch, every open rung
// keeps the lex_before minimum of the designs meeting its PDRmin, the
// patience rule is tested, and the Update cut removes the level.  A
// rung closes when its bound certifies that no later level can beat
// its incumbent (kSoundFloor, kPaperAlpha; kNone never), or when
// `patience` consecutive levels left its feasible incumbent unchanged.
// The walk ends when the MILP runs dry, every rung is closed, or the
// run's budget of evaluated levels is spent.
//
// The walk reads the run it belongs to: the bound, alpha_kappa, budget
// (-1 = 10'000 levels) and robustness of the RunScope's
// ExplorationOptions, and the scope's worker threads and registry.
// WalkOptions adds only what differs between its callers: the rungs,
// the patience rule and the per-level callback.  run_algorithm1 is the
// walk at one rung and run_fast_ilp the walk at one rung on a copy of
// the options with kNone and patience 2 (both defined in
// level_walk.cpp); pareto::ladder_front is the walk at every ladder
// rung.  Only the walk calls run_milp and add_power_cut_above, and only
// it records the `walk.*` counters.
#pragma once

#include <functional>
#include <vector>

#include "dse/explorer.hpp"
#include "dse/milp_encoding.hpp"

namespace hi::dse {

/// One PDRmin rung of a walk and its incumbent.
struct WalkRung {
  double pdr_min = 0.0;
  bool open = true;       ///< false once its stop rule held or the MILP ran dry
  bool feasible = false;  ///< an evaluated design meets pdr_min
  DesignPoint best;       ///< the incumbent (valid if feasible)
  int stale_levels = 0;   ///< evaluated levels since it last changed
};

/// Outcome of a walk (and its state so far, as WalkOptions::on_level
/// sees it).
struct WalkResult {
  std::vector<WalkRung> rungs;  ///< aligned with WalkOptions::pdr_mins
  int levels_proposed = 0;      ///< non-empty MILP rounds
  int levels_evaluated = 0;     ///< levels handed to RunSim
  /// Every rung closed (or the MILP ran dry); false only when the
  /// level budget stopped the walk.
  bool complete = false;
};

/// What a walk adds to its run's options; see the file comment.
struct WalkOptions {
  std::vector<double> pdr_mins;  ///< the rungs, reported in this order
  int patience = 0;              ///< 0 = no patience rule
  /// Called after each level's RunSim and Sort, before its cut; `revs`
  /// is aligned with round.candidates.  Empty = none.
  std::function<void(const MilpRound& round,
                     const std::vector<RobustEvaluation>& revs,
                     const WalkResult& walk)>
      on_level;
};

/// See file comment; `scope` must be the run's scope over `eval`.
/// Throws hi::ModelError for kPaperAlpha on a robust run (the α
/// discount has no sound robust reading) and for invalid
/// RobustnessOptions.
[[nodiscard]] WalkResult walk_levels(const model::Scenario& scenario,
                                     Evaluator& eval, const RunScope& scope,
                                     const WalkOptions& opt);

}  // namespace hi::dse
