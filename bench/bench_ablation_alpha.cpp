// Ablation: the α-based early-termination of Algorithm 1 (Sec. 3,
// line 5).  With the α test disabled the loop drains the MILP of every
// power level; with it enabled the search stops as soon as the
// discounted analytic power of the next level provably exceeds the
// simulated incumbent.  Both variants must return the same optimum.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "dse/explorer.hpp"

int main() {
  using namespace hi;
  const dse::EvaluatorSettings settings = bench::experiment_settings();
  bench::banner("Ablation: alpha-based early termination of Algorithm 1",
                settings);

  model::Scenario scenario;
  dse::Evaluator eval(settings);  // one cache; counters reset per run
  TextTable table;
  table.set_header({"PDRmin", "optimum match", "iters w/ alpha",
                    "iters w/o", "sims w/ alpha", "sims w/o", "saved"});
  for (double pdr_min : {0.50, 0.70, 0.90, 0.95, 0.99}) {
    eval.reset_counters();
    dse::ExplorationOptions on;
    on.pdr_min = pdr_min;
    const dse::ExplorationResult with_alpha =
        dse::run_algorithm1(scenario, eval, on);

    eval.reset_counters();
    dse::ExplorationOptions off = on;
    off.bound = dse::TerminationBound::kNone;
    const dse::ExplorationResult without =
        dse::run_algorithm1(scenario, eval, off);

    const bool match =
        with_alpha.feasible == without.feasible &&
        (!with_alpha.feasible ||
         with_alpha.best_power_mw == without.best_power_mw);
    const double saved =
        without.simulations > 0
            ? 1.0 - static_cast<double>(with_alpha.simulations) /
                        static_cast<double>(without.simulations)
            : 0.0;
    table.add_row({fmt_percent(pdr_min, 0), match ? "yes" : "NO",
                   std::to_string(with_alpha.iterations),
                   std::to_string(without.iterations),
                   std::to_string(with_alpha.simulations),
                   std::to_string(without.simulations),
                   fmt_percent(saved, 1)});
  }
  table.print(std::cout);
  std::cout << "\ntermination uses the sound per-cell measured-power floors "
               "(see DESIGN.md); bench_alg1_vs_exhaustive compares them "
               "against the paper's literal alpha rule\n";

  // ---- Kappa sweep: how conservative can the bound be before the -------
  // ---- savings vanish, and does the optimum survive throughout? --------
  std::cout << "\nLoss-discount safety factor sweep (PDRmin = 90%):\n";
  TextTable ks;
  ks.set_header({"kappa", "sims", "iterations", "optimum P (mW)"});
  for (double kappa : {1.0, 0.8, 0.6, 0.4, 0.2}) {
    eval.reset_counters();
    dse::ExplorationOptions opt;
    opt.pdr_min = 0.90;
    opt.bound = dse::TerminationBound::kPaperAlpha;  // the rule kappa scales
    opt.alpha_kappa = kappa;
    const dse::ExplorationResult res =
        dse::run_algorithm1(scenario, eval, opt);
    ks.add_row({fmt_double(kappa, 1), std::to_string(res.simulations),
                std::to_string(res.iterations),
                res.feasible ? fmt_double(res.best_power_mw, 3) : "-"});
  }
  ks.print(std::cout);
  std::cout << "\nexpected: the optimum power is identical for every kappa; "
               "smaller kappa only buys more simulations\n";
  return 0;
}
