// Perf benchmark for the hi::pareto frontier engine (DESIGN.md §14):
// the exhaustive three-objective front vs the MILP ladder sweep on the
// paper scenario, with latency collection on.  Front sizes, evaluation
// counts, and per-rung feasibility are deterministic and exact-gated;
// throughput rates are gated with the usual tolerance; wall clocks are
// trajectory-only.
//
// The bench also re-asserts the engine's core contract inline (cheap,
// and a broken contract should fail the bench run, not just tier-1):
// every ladder front point must appear in the exhaustive front with
// bit-identical objectives, and the ladder must never simulate more.
//
// Emits the canonical "hi-bench/v1" JSON on stdout (committed baseline
// BENCH_pareto.json, run and gated by scripts/bench.sh).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "dse/evaluator.hpp"
#include "pareto/sweep.hpp"

namespace {

using namespace hi;

dse::EvaluatorSettings pinned_settings(bool quick) {
  dse::EvaluatorSettings s;
  s.sim.duration_s = quick ? 2.0 : 5.0;
  s.sim.seed = 2017;
  s.runs = 1;
  s.sim.collect_latency = true;  // the third objective
  return s;
}

}  // namespace

int main() {
  using namespace hi;
  const bool quick = bench::quick_mode();
  const dse::EvaluatorSettings settings = pinned_settings(quick);
  const model::Scenario scenario{};  // the paper example
  bench::BenchReport report("pareto", settings);
  std::cerr << "bench_pareto_front: quick=" << quick
            << " (hi-bench/v1 JSON on stdout)\n";

  pareto::SweepOptions opt;  // default PDRmin ladder (Fig. 3 range)

  // ---- Exhaustive front: the definitive oracle. --------------------------
  dse::Evaluator ex_eval(settings);
  const pareto::SweepResult ex =
      pareto::exhaustive_front(scenario, ex_eval, opt);
  HI_ASSERT_MSG(!ex.front.empty(), "paper scenario produced an empty front");
  report.add(bench::BenchMetric{"exhaustive_front_size", "count",
                                static_cast<double>(ex.front.size()), "exact",
                                !quick, ex.front.size(), 0.0});
  report.add(bench::BenchMetric{"exhaustive_evaluated", "count",
                                static_cast<double>(ex.evaluated), "exact",
                                !quick, ex.evaluated, 0.0});
  report.add_rate("exhaustive_eval_rate", "evals/s", ex.simulations,
                  ex.wall_time_s);
  report.add(bench::BenchMetric{"exhaustive_wall", "s", ex.wall_time_s,
                                "lower", false, 0, ex.wall_time_s});
  std::cerr << "  exhaustive: " << ex.front.size() << " front points from "
            << ex.evaluated << " evaluations (" << ex.wall_time_s << " s)\n";

  // ---- Ladder front: one MILP encoding, shared pools. --------------------
  dse::Evaluator ld_eval(settings);
  const pareto::SweepResult ld = pareto::ladder_front(scenario, ld_eval, opt);
  HI_ASSERT_MSG(ld.complete, "ladder sweep hit its level budget");
  HI_ASSERT_MSG(ld.simulations <= ex.simulations,
                "ladder simulated more than exhaustive");
  for (const pareto::FrontPoint& p : ld.front) {
    const auto it = std::find_if(
        ex.front.begin(), ex.front.end(), [&](const pareto::FrontPoint& q) {
          return q.cfg.design_key() == p.cfg.design_key();
        });
    HI_ASSERT_MSG(it != ex.front.end() && it->power_mw == p.power_mw &&
                      it->pdr == p.pdr && it->p95_s == p.p95_s,
                  "ladder front point " << p.cfg.label()
                                        << " not on the exhaustive front");
  }
  report.add(bench::BenchMetric{"ladder_front_size", "count",
                                static_cast<double>(ld.front.size()), "exact",
                                !quick, ld.front.size(), 0.0});
  report.add(bench::BenchMetric{"ladder_evaluated", "count",
                                static_cast<double>(ld.evaluated), "exact",
                                !quick, ld.evaluated, 0.0});
  report.add(bench::BenchMetric{"ladder_milp_rounds", "count",
                                static_cast<double>(ld.milp_rounds), "exact",
                                !quick, ld.milp_rounds, 0.0});
  report.add(bench::BenchMetric{"ladder_feasible_rungs", "count",
                                static_cast<double>(std::count_if(
                                    ld.rungs.begin(), ld.rungs.end(),
                                    [](const pareto::RungResult& r) {
                                      return r.feasible;
                                    })),
                                "exact", !quick, 0, 0.0});
  report.add(bench::BenchMetric{"ladder_wall", "s", ld.wall_time_s, "lower",
                                false, 0, ld.wall_time_s});
  std::cerr << "  ladder: " << ld.front.size() << " front points, "
            << ld.milp_rounds << " MILP rounds, " << ld.evaluated
            << " evaluations (" << ld.wall_time_s << " s)\n";

  report.write(std::cout);
  return 0;
}
