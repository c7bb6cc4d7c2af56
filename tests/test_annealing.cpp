// Tests for the simulated-annealing baseline (dse/annealing.cpp, entry
// point in dse/explorer.hpp).
#include "dse/explorer.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/assert.hpp"

namespace hi::dse {
namespace {

EvaluatorSettings fast_settings(std::uint64_t seed = 33) {
  EvaluatorSettings s;
  s.sim.duration_s = 10.0;
  s.sim.seed = seed;
  s.runs = 2;
  return s;
}

model::Scenario small_scenario() {
  model::Scenario sc;
  sc.max_nodes = 4;
  return sc;
}

TEST(Annealing, FindsAFeasibleSolution) {
  Evaluator ev(fast_settings());
  ExplorationOptions opt;
  opt.pdr_min = 0.5;
  opt.budget = 150;
  const ExplorationResult res = run_annealing(small_scenario(), ev, opt);
  ASSERT_TRUE(res.feasible);
  EXPECT_GE(res.best_pdr, 0.5);
  EXPECT_EQ(res.iterations, 150);
  EXPECT_GT(res.simulations, 0u);
}

TEST(Annealing, EveryVisitedStateSatisfiesConstraints) {
  Evaluator ev(fast_settings());
  ExplorationOptions opt;
  opt.pdr_min = 0.7;
  opt.budget = 120;
  const model::Scenario sc = small_scenario();
  const ExplorationResult res = run_annealing(sc, ev, opt);
  for (const CandidateRecord& rec : res.history) {
    EXPECT_TRUE(sc.topology_feasible(rec.cfg.topology))
        << rec.cfg.label();
    if (rec.cfg.routing.protocol == model::RoutingProtocol::kStar) {
      EXPECT_TRUE(rec.cfg.topology.has(sc.coordinator));
    }
  }
}

TEST(Annealing, DeterministicBySeed) {
  Evaluator ev1(fast_settings());
  Evaluator ev2(fast_settings());
  ExplorationOptions opt;
  opt.pdr_min = 0.5;
  opt.budget = 80;
  opt.seed = 99;
  const ExplorationResult a = run_annealing(small_scenario(), ev1, opt);
  const ExplorationResult b = run_annealing(small_scenario(), ev2, opt);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_DOUBLE_EQ(a.best_power_mw, b.best_power_mw);
  EXPECT_EQ(a.simulations, b.simulations);
  EXPECT_EQ(a.history.size(), b.history.size());
}

TEST(Annealing, ConvergesNearExhaustiveOptimumWithEnoughSteps) {
  // SA is a heuristic; with a generous budget and the best of a few
  // restarts on the small scenario it should land within 15% of the true
  // optimum power (the exact optimum is often a single lucky topology).
  const model::Scenario sc = small_scenario();
  Evaluator ev(fast_settings(7));
  ExplorationOptions exh_opt;
  exh_opt.pdr_min = 0.7;
  const ExplorationResult exh = run_exhaustive(sc, ev, exh_opt);
  ASSERT_TRUE(exh.feasible);
  double best = std::numeric_limits<double>::infinity();
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    ExplorationOptions opt;
    opt.pdr_min = 0.7;
    opt.budget = 400;
    opt.seed = seed;
    const ExplorationResult sa = run_annealing(sc, ev, opt);
    if (sa.feasible) {
      best = std::min(best, sa.best_power_mw);
    }
  }
  EXPECT_LE(best, exh.best_power_mw * 1.15);
  EXPECT_GE(best, exh.best_power_mw - 1e-9);
}

TEST(Annealing, CachedRevisitsDoNotInflateSimCount) {
  const model::Scenario sc = small_scenario();
  Evaluator ev(fast_settings());
  ExplorationOptions opt;
  opt.pdr_min = 0.5;
  opt.budget = 300;
  const ExplorationResult res = run_annealing(sc, ev, opt);
  // The small scenario has only 96 design points; revisits hit the cache.
  EXPECT_LE(res.simulations, 96u);
  EXPECT_GT(ev.cache_hits(), 0u);
  // The run snapshot mirrors both evaluator counters exactly.
  EXPECT_EQ(res.metrics.counter("dse.simulations"), res.simulations);
  EXPECT_GT(res.metrics.counter("dse.cache_hits"), 0u);
}

TEST(Annealing, RejectsBadOptions) {
  Evaluator ev(fast_settings());
  ExplorationOptions opt;
  opt.pdr_min = 1.5;
  EXPECT_THROW((void)run_annealing(small_scenario(), ev, opt), ModelError);
  opt.pdr_min = 0.5;
  opt.budget = 0;
  EXPECT_THROW((void)run_annealing(small_scenario(), ev, opt), ModelError);
}

}  // namespace
}  // namespace hi::dse
