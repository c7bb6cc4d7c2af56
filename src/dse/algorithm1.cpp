// hi-opt: Algorithm 1 — the paper's MILP + simulation DSE loop.
//
// Each iteration asks the MILP for *all* configurations attaining the
// current minimum of the approximate power model (RunMILP), simulates
// them (RunSim), keeps the best one meeting the reliability bound
// (Sort), and cuts the exhausted power level out of the MILP (Update).
// Termination: the MILP runs dry, or the α-discounted analytic power of
// the next level is guaranteed to exceed the simulated incumbent
// (line 5 of the paper's listing).
//
// RunSim is dse::RobustBatch, the one evaluation path: it folds K
// channel realizations (K = 1 for a nominal run), feasibility is judged
// on the worst realization, and the incumbent minimizes the robust
// objective (worst simulated power + Γ-protection; exactly the
// simulated power at Γ = 0).  With Γ > 0 RunMILP proposes levels of the
// Γ-protected cost model.  Termination stays sound because every
// quantity shifts by the same cell protection: a cell's robust
// objective is bounded below by its measured floor + its protection,
// which is what SoundFloor compares.  The cuts remove Γ-protected
// levels, so they can never cut a level whose worst-case realization
// would have won — that is the cut-soundness argument the robust fuzz
// properties check.
//
// Entry point: run_algorithm1(scenario, eval, ExplorationOptions),
// declared in dse/explorer.hpp (or Explorer::algorithm1().run(...)).
#include "common/assert.hpp"
#include "dse/explorer.hpp"
#include "dse/milp_encoding.hpp"
#include "dse/robustness.hpp"
#include "model/power.hpp"
#include "obs/timer.hpp"

namespace hi::dse {

ExplorationResult run_algorithm1(const model::Scenario& scenario,
                                 Evaluator& eval,
                                 const ExplorationOptions& opt) {
  detail::RunScope scope(ExplorerKind::kAlgorithm1, eval, opt);
  // RunSim engine: each MILP level hands back its whole alternative-
  // optima set at once, which batch-evaluates concurrently (bit-identical
  // to serial; see exec::BatchEvaluator).  One batch serves every round.
  RobustBatch batch(eval, scope.threads(), opt.robust);
  const int max_iterations = opt.budget >= 0 ? opt.budget : 10'000;
  // The kPaperAlpha discount reasons about the nominal analytic model
  // only; there is no sound robust reading of it.
  HI_REQUIRE(opt.bound != TerminationBound::kPaperAlpha ||
                 !opt.robust.active(),
             "robust Algorithm 1 does not support the kPaperAlpha bound");

  MilpEncoding encoding(scenario, opt.robust.gamma);
  // Route the inner solver's milp.* counters into this run's registry
  // (whatever the caller put in opt.milp.metrics would escape the
  // snapshot delta that feeds ExplorationResult::milp_bnb_nodes).
  milp::Options milp_opt = opt.milp;
  milp_opt.metrics = &scope.registry();
  const SoundFloor floor(scenario, eval.settings().sim, opt.robust.gamma,
                         {opt.pdr_min});

  ExplorationResult res;
  for (res.iterations = 0; res.iterations < max_iterations;
       ++res.iterations) {
    // ---- line 3: RunMILP --------------------------------------------------
    const MilpRound round = [&] {
      obs::ScopedTimer timer(&scope.registry(), "alg1.milp_s");
      return encoding.run_milp(milp_opt);
    }();

    // ---- line 4: infeasible problem / MILP dry ----------------------------
    if (round.candidates.empty()) {
      break;  // S = {}: return S* (res.feasible says whether one exists)
    }
    // ---- line 5: early termination -----------------------------------------
    if (res.feasible) {
      bool stop = false;
      switch (opt.bound) {
        case TerminationBound::kNone:
          break;
        case TerminationBound::kSoundFloor:
          // Every cell at or above this level — including the one the
          // MILP just proposed — must consume more than the incumbent
          // even under maximal packet loss: no further simulation wins.
          stop = floor.certifies(round.power_mw, 0, res.best_power_mw);
          break;
        case TerminationBound::kPaperAlpha: {
          // Paper line 5: P̄* / α(S*, PDRmin) > P̄min with the uniform
          // loss discount applied to the incumbent's cell.
          const double p_best = model::node_power_mw(res.best);
          const double lb = res.best.app.baseline_mw +
                            opt.alpha_kappa * opt.pdr_min *
                                (p_best - res.best.app.baseline_mw);
          const double alpha = p_best / lb;
          stop = round.power_mw / alpha > res.best_power_mw;
          break;
        }
      }
      if (stop) {
        break;
      }
    }

    // ---- line 7: RunSim (the whole level concurrently) ---------------------
    const std::vector<RobustEvaluation> revs = [&] {
      obs::ScopedTimer timer(&scope.registry(), "alg1.sim_s");
      return batch.evaluate(round.candidates);
    }();
    // ---- line 8: Sort (track the round's feasible minimum directly) ------
    std::size_t round_best = revs.size();  // none feasible yet
    for (std::size_t i = 0; i < revs.size(); ++i) {
      res.history.push_back(robust_record(round.candidates[i], revs[i]));
      if (revs[i].worst_pdr >= opt.pdr_min &&
          (round_best == revs.size() ||
           revs[i].robust_power_mw < revs[round_best].robust_power_mw)) {
        round_best = i;
      }
    }

    // ---- lines 9-10: update the incumbent ---------------------------------
    if (round_best < revs.size() &&
        (!res.feasible ||
         res.best_power_mw >= revs[round_best].robust_power_mw)) {
      adopt_incumbent(res, round.candidates[round_best], revs[round_best]);
    }

    // ---- line 11: Update — exclude the exhausted power level --------------
    encoding.add_power_cut_above(round.power_mw);
    scope.registry().counter("alg1.cuts_added").add(1);
    scope.progress(res.iterations + 1, res);
  }

  scope.finish(res);
  return res;
}

}  // namespace hi::dse
