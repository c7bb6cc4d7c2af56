// Perf microbenchmark for robust evaluation (DESIGN.md §13): the
// multi-realization evaluation throughput (design evaluations per
// second at K = 1, 2, 4 channel realizations, with the realization-fold
// cost exact-gated), and the robust Algorithm 1 vs fast-ILP heuristic
// trade (wall clock, simulation counts, and the heuristic's optimality
// gap on the paper example — all exact-gated, since both explorers are
// deterministic).
//
// Emits the canonical "hi-bench/v1" JSON on stdout (schema in
// DESIGN.md §11); committed baseline BENCH_robust.json, run and gated
// by scripts/bench.sh.  HI_BENCH_QUICK shrinks the workloads; extensive
// counts are then emitted with gate=false as usual.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "dse/explorer.hpp"

namespace {

using namespace hi;

/// Pinned settings: the exact-gated metrics (simulation counts, robust
/// optima) are only reproducible under these, so the env knobs are
/// deliberately ignored.
dse::EvaluatorSettings pinned_settings(bool quick) {
  dse::EvaluatorSettings s;
  s.sim.duration_s = quick ? 2.0 : 10.0;
  s.sim.seed = 2017;
  s.runs = 1;
  return s;
}

}  // namespace

int main() {
  using namespace hi;
  const bool quick = bench::quick_mode();
  const dse::EvaluatorSettings settings = pinned_settings(quick);
  const model::Scenario scenario{};  // the paper example
  bench::BenchReport report("robust", settings);
  std::cerr << "bench_robust_dse: quick=" << quick
            << " (hi-bench/v1 JSON on stdout)\n";

  // ---- Multi-realization throughput: exhaustive sweep at K = 1, 2, 4.
  // Each leg runs on a fresh evaluator (no cache carry-over), so the
  // rate is the true cost of folding K realizations into every design
  // evaluation.  Γ = 1 keeps the robust machinery engaged at K = 1 too
  // (Γ-protection is closed-form and does not add simulations).
  for (const int k : {1, 2, 4}) {
    dse::ExplorationOptions opt;
    opt.pdr_min = 0.9;
    opt.robust = dse::RobustnessOptions{1, k, 0.95};
    dse::ExplorationResult res;
    const double wall = bench::time_best_of(quick ? 1 : 3, [&] {
      dse::Evaluator eval(settings);
      res = dse::run_exhaustive(scenario, eval, opt);
    });
    HI_ASSERT_MSG(res.feasible, "paper example infeasible at PDRmin=0.9");
    HI_ASSERT_MSG(res.realizations == k,
                  "realization echo broken: " << res.realizations);
    // res.simulations counts realization-sims; designs = sims / K.
    const std::uint64_t designs = res.simulations / static_cast<std::uint64_t>(k);
    HI_ASSERT_MSG(designs * static_cast<std::uint64_t>(k) == res.simulations,
                  "realization fold not a multiple of K");
    const std::string suffix = "_k" + std::to_string(k);
    report.add_rate("eval_rate" + suffix, "evals/s", designs, wall);
    report.add(bench::BenchMetric{"realization_sims" + suffix, "count",
                                  static_cast<double>(res.simulations),
                                  "exact", !quick, res.simulations, 0.0});
    report.add(bench::BenchMetric{"best_power" + suffix, "mW",
                                  res.best_power_mw, "exact", !quick,
                                  0, 0.0});
    std::cerr << "  K=" << k << ": " << designs << " designs ("
              << res.simulations << " sims) in " << wall << " s\n";
  }

  // ---- Robust Algorithm 1 vs the fast-ILP heuristic at Γ=2, K=2,
  // across the PDRmin ladder (the EXPERIMENTS.md table).  Both
  // explorers are deterministic, so simulation counts, optima, and the
  // heuristic's gap are exact-gated; wall clocks are trajectory data.
  // The contracts mirror the tier-1 FastIlp tests: identical
  // feasibility verdicts, heuristic never beats the exact optimum,
  // never simulates more.
  {
    double alg1_wall = 0.0, fi_wall = 0.0;
    std::uint64_t robust_cuts = 0;
    for (const double pdr_min : {0.5, 0.7, 0.9, 0.95, 0.99}) {
      dse::ExplorationOptions opt;
      opt.pdr_min = pdr_min;
      opt.robust = dse::RobustnessOptions{2, 2, 0.95};
      dse::Evaluator eval_alg1(settings);
      const dse::ExplorationResult alg1 =
          dse::run_algorithm1(scenario, eval_alg1, opt);
      dse::Evaluator eval_fi(settings);
      const dse::ExplorationResult fi =
          dse::run_fast_ilp(scenario, eval_fi, opt);

      HI_ASSERT_MSG(fi.feasible == alg1.feasible,
                    "feasibility verdicts disagree at PDRmin=" << pdr_min);
      const double gap_mw = fi.best_power_mw - alg1.best_power_mw;
      HI_ASSERT_MSG(gap_mw >= -1e-12, "heuristic beat the exact optimum");
      HI_ASSERT_MSG(fi.simulations <= alg1.simulations,
                    "heuristic simulated more than Algorithm 1");

      alg1_wall += alg1.wall_time_s;
      fi_wall += fi.wall_time_s;
      robust_cuts += alg1.metrics.counter("walk.cuts_added");
      const std::string suffix =
          "_p" + std::to_string(static_cast<int>(pdr_min * 100.0));
      report.add(bench::BenchMetric{"alg1_sims" + suffix, "count",
                                    static_cast<double>(alg1.simulations),
                                    "exact", !quick, alg1.simulations, 0.0});
      report.add(bench::BenchMetric{"fast_ilp_sims" + suffix, "count",
                                    static_cast<double>(fi.simulations),
                                    "exact", !quick, fi.simulations, 0.0});
      report.add(bench::BenchMetric{"alg1_robust_power" + suffix, "mW",
                                    alg1.best_power_mw, "exact", !quick,
                                    0, 0.0});
      report.add(bench::BenchMetric{"fast_ilp_gap" + suffix, "mW", gap_mw,
                                    "exact", !quick, 0, 0.0});
      std::cerr << "  PDRmin=" << pdr_min << ": alg1 " << alg1.simulations
                << " sims, " << alg1.best_power_mw << " mW ("
                << alg1.wall_time_s << " s); fast-ilp " << fi.simulations
                << " sims, gap " << gap_mw << " mW (" << fi.wall_time_s
                << " s)\n";
    }
    report.add(bench::BenchMetric{"alg1_wall", "s", alg1_wall, "lower",
                                  false, 0, alg1_wall});
    report.add(bench::BenchMetric{"fast_ilp_wall", "s", fi_wall, "lower",
                                  false, 0, fi_wall});
    report.add(bench::BenchMetric{"alg1_robust_cuts", "count",
                                  static_cast<double>(robust_cuts), "exact",
                                  !quick, 0, 0.0});
  }

  report.write(std::cout);
  return 0;
}
