// hi-opt: the fast ILP-based heuristic explorer (D'Andreagiovanni &
// Nardin, "A fast ILP-based Heuristic for the robust design of Body
// Wireless Sensor Networks", ported onto this code base).
//
// Structure: Algorithm 1's ascending-level loop — RunMILP proposes all
// configurations at the minimum (Γ-protected) analytic power level,
// RunSim evaluates them, a cut removes the exhausted level — but the
// exactness machinery is replaced by a patience rule: once a feasible
// incumbent exists, the search stops after kPatience consecutive
// levels that fail to improve it.  The analytic cost model orders
// levels well in practice, so the first feasible level is
// usually optimal or near-optimal, and the heuristic skips the long
// tail of levels Algorithm 1's sound floor cannot prune — that is
// where its speed comes from, and why it is NOT exact.  EXPERIMENTS.md
// documents the measured optimality gap; bench_robust_dse gates it.
//
// RunSim and the incumbent rule are Algorithm 1's: Γ-protected MILP
// levels, K-realization RunSim through dse::RobustBatch (K = 1, Γ = 0
// for a nominal run), worst-case feasibility.
//
// Entry point: run_fast_ilp(scenario, eval, ExplorationOptions),
// declared in dse/explorer.hpp (or Explorer::fast_ilp().run(...)).
#include "dse/explorer.hpp"
#include "dse/milp_encoding.hpp"
#include "dse/robustness.hpp"
#include "obs/timer.hpp"

namespace hi::dse {

/// MILP levels the search keeps climbing past a feasible incumbent
/// without improvement before it stops.  Larger is closer to Algorithm
/// 1's exactness, smaller is faster.  store::options_fingerprint hashes
/// this value as a constant; changing it here must change it there too.
constexpr int kPatience = 2;

ExplorationResult run_fast_ilp(const model::Scenario& scenario,
                               Evaluator& eval,
                               const ExplorationOptions& opt) {
  detail::RunScope scope(ExplorerKind::kFastIlp, eval, opt);
  RobustBatch batch(eval, scope.threads(), opt.robust);
  const int max_iterations = opt.budget >= 0 ? opt.budget : 10'000;

  MilpEncoding encoding(scenario, opt.robust.gamma);
  milp::Options milp_opt = opt.milp;
  milp_opt.metrics = &scope.registry();

  ExplorationResult res;
  int stale_levels = 0;  // levels since the incumbent last improved

  for (res.iterations = 0; res.iterations < max_iterations;
       ++res.iterations) {
    const MilpRound round = [&] {
      obs::ScopedTimer timer(&scope.registry(), "fast_ilp.milp_s");
      return encoding.run_milp(milp_opt);
    }();
    if (round.candidates.empty()) {
      break;  // MILP dry: either infeasible or the incumbent stands
    }

    const std::vector<RobustEvaluation> revs = [&] {
      obs::ScopedTimer timer(&scope.registry(), "fast_ilp.sim_s");
      return batch.evaluate(round.candidates);
    }();
    bool improved = false;
    for (std::size_t i = 0; i < revs.size(); ++i) {
      improved = offer_candidate(res, round.candidates[i], revs[i],
                                 opt.pdr_min) ||
                 improved;
    }

    // The patience rule — the heuristic's entire termination logic.
    if (res.feasible) {
      stale_levels = improved ? 0 : stale_levels + 1;
      if (stale_levels >= kPatience) {
        ++res.iterations;  // count the level that triggered the stop
        break;
      }
    }

    encoding.add_power_cut_above(round.power_mw);
    scope.registry().counter("fast_ilp.cuts_added").add(1);
    scope.progress(res.iterations + 1, res);
  }

  scope.finish(res);
  return res;
}

}  // namespace hi::dse
