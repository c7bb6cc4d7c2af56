// hi-opt: frontier sweep drivers (DESIGN.md §14).
//
// Two ways to produce a front for a scenario, sharing one Evaluator
// (and therefore its cache, its store warm-start, and its counters).
// Both are runs like any explorer's: SweepOptions::run is the one
// dse::ExplorationOptions bag (threads, robustness, the walk's bound
// and level budget, registry, progress), and each sweep runs inside a
// dse::RunScope, which validates it, resolves the registry and fills
// the result's counts:
//
//  * exhaustive_front — batch-evaluates every feasible configuration
//    and keeps the non-dominated set.  The definitive exact front, and
//    the oracle the tier-1 differential test holds the ladder against.
//
//  * ladder_front — the MILP level walk (dse::walk_levels) at N rungs:
//    Algorithm 1's loop for every rung of the PDRmin ladder at once.
//    One MilpEncoding proposes levels in ascending analytic power, each
//    level is batch-evaluated once, every open rung keeps its lex_before
//    minimum of the shared evaluations, and a rung closes when the run's
//    bound (the sound floor by default) certifies it.  Each front point
//    therefore costs at most one MILP solve plus simulations that the
//    other rungs (or a warm store) already paid for, and rung p equals
//    Algorithm 1 at PDRmin p under the same options bit for bit
//    (check::check_alg1_matches_ladder).
//
//    A rung optimum the sound floor certified is globally non-dominated:
//    any dominator would need PDR >= the rung bound and power <= the
//    optimum, hence be an explored candidate ordered before the
//    lex_before minimum — a contradiction.  The emitted front is the
//    non-dominated subset of the rung optima.
//
// RobustnessOptions compose: candidates are always folded through
// dse::RobustBatch, objectives are (robust power, worst-case PDR,
// worst-realization p95), the MILP proposes Γ-protected levels, and the
// floor certificate carries the same protection — so Γ-robust fronts
// fall out of the identical control flow, and the default Γ=0/K=1 is
// the nominal front.
#pragma once

#include <cstdint>
#include <vector>

#include "dse/evaluator.hpp"
#include "dse/explorer.hpp"
#include "dse/robustness.hpp"
#include "model/design_space.hpp"
#include "pareto/front.hpp"

namespace hi::pareto {

/// Sweep controls shared by both drivers: what a sweep adds to a run.
struct SweepOptions {
  /// PDRmin rungs of the ladder (any order; deduplicated and sorted
  /// ascending internally).  Also used by exhaustive_front to report
  /// per-rung optima.  Default: the paper's Fig. 3 sweep range.
  std::vector<double> pdr_ladder = {0.50, 0.60, 0.70, 0.80,
                                    0.90, 0.95, 0.99};
  /// ε-dominance knob for the emitted front.
  FrontOptions front{};
  /// The run: threads, robust (nominal by default), metrics; for
  /// ladder_front also bound, alpha_kappa and budget (the walk's
  /// evaluated-level valve).  pdr_min is unused (the ladder replaces
  /// it).  progress is called after each evaluated MILP level
  /// (ladder_front: kind kAlgorithm1, the lowest rung's incumbent) or
  /// once after the evaluation (exhaustive_front: kind kExhaustive),
  /// with `iteration` the levels done so far (1 for exhaustive).  The
  /// hi_pareto CLI syncs its store there — which makes it the
  /// crash-injection point the resume-after-kill test drives.
  dse::ExplorationOptions run{};
};

/// Per-rung outcome: the certified minimum-power point meeting the
/// rung's PDR bound (lex_before tie-break), or infeasible.
struct RungResult {
  double pdr_min = 0.0;
  bool feasible = false;
  FrontPoint best{};
};

/// Outcome of a sweep.
struct SweepResult {
  /// The non-dominated set, lex_before-sorted.  exhaustive_front: over
  /// every feasible configuration; ladder_front: over the certified
  /// rung optima (a subset of the exhaustive front — the differential
  /// test pins that).
  std::vector<FrontPoint> front;
  std::vector<RungResult> rungs;  ///< ascending pdr_min
  std::uint64_t evaluated = 0;    ///< distinct design points evaluated
  std::uint64_t simulations = 0;  ///< fresh simulations paid (delta)
  std::uint64_t store_hits = 0;   ///< simulations served by a warm store
  std::uint64_t milp_rounds = 0;  ///< ladder only: levels proposed
  std::uint64_t milp_bnb_nodes = 0;  ///< ladder only: `milp.bnb_nodes`
  bool complete = true;  ///< false only when run.budget stopped the ladder
  double wall_time_s = 0.0;
};

/// See file comment.
[[nodiscard]] SweepResult exhaustive_front(const model::Scenario& scenario,
                                           dse::Evaluator& eval,
                                           const SweepOptions& opt = {});

/// See file comment.
[[nodiscard]] SweepResult ladder_front(const model::Scenario& scenario,
                                       dse::Evaluator& eval,
                                       const SweepOptions& opt = {});

}  // namespace hi::pareto
