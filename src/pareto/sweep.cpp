#include "pareto/sweep.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "dse/level_walk.hpp"

namespace hi::pareto {

namespace {

/// Validates, sorts ascending and deduplicates the PDRmin ladder.
std::vector<double> canonical_ladder(const std::vector<double>& ladder) {
  HI_REQUIRE(!ladder.empty(), "pareto sweep: empty PDRmin ladder");
  std::vector<double> rungs = ladder;
  for (double r : rungs) {
    HI_REQUIRE(r >= 0.0 && r <= 1.0,
               "pareto sweep: PDRmin rung " << r << " outside [0, 1]");
  }
  std::sort(rungs.begin(), rungs.end());
  rungs.erase(std::unique(rungs.begin(), rungs.end()), rungs.end());
  return rungs;
}

/// Ends a sweep: fills the result's front, records the `pareto.*`
/// counters, and fills its counts and wall time from the run's scope.
void finish(dse::RunScope& scope, SweepResult& res, const FrontBuilder& fb) {
  res.front = fb.front();
  obs::MetricsRegistry& m = scope.registry();
  m.counter("pareto.points_offered").add(fb.offered());
  m.counter("pareto.dominated_dropped").add(fb.dominated_dropped());
  m.counter("pareto.displaced").add(fb.displaced());
  m.gauge("pareto.front_size").set(static_cast<double>(res.front.size()));
  m.counter("pareto.sweeps").add(1);
  const dse::RunTotals t = scope.finish();
  res.simulations = t.simulations;
  res.store_hits = t.store_hits;
  res.wall_time_s = t.wall_time_s;
  res.milp_bnb_nodes = t.metrics.counter("milp.bnb_nodes");
}

}  // namespace

SweepResult exhaustive_front(const model::Scenario& scenario,
                             dse::Evaluator& eval, const SweepOptions& opt) {
  const std::vector<double> rungs = canonical_ladder(opt.pdr_ladder);
  dse::RunScope scope(dse::ExplorerKind::kExhaustive, eval, opt.run);
  dse::RobustBatch batch(eval, scope.threads(), opt.run.robust);
  const std::vector<model::NetworkConfig> cfgs = scenario.feasible_configs();
  const std::vector<dse::RobustEvaluation> revs = batch.evaluate(cfgs);

  SweepResult res;
  FrontBuilder fb(opt.front);
  std::vector<FrontPoint> points;
  points.reserve(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    points.push_back(make_point(cfgs[i], revs[i]));
    fb.insert(points.back());
  }
  // Per-rung optima fall out of the same evaluations: the lex_before
  // minimum among points meeting the rung.
  for (double pdr_min : rungs) {
    RungResult& rr = res.rungs.emplace_back();
    rr.pdr_min = pdr_min;
    for (const FrontPoint& p : points) {
      if (p.pdr >= pdr_min && (!rr.feasible || lex_before(p, rr.best))) {
        rr.feasible = true;
        rr.best = p;
      }
    }
  }
  res.evaluated = points.size();
  const RungResult& low = res.rungs.front();
  scope.progress(1, low.feasible, low.best.power_mw);
  finish(scope, res, fb);
  return res;
}

SweepResult ladder_front(const model::Scenario& scenario, dse::Evaluator& eval,
                         const SweepOptions& opt) {
  dse::WalkOptions walk;
  walk.pdr_mins = canonical_ladder(opt.pdr_ladder);
  dse::RunScope scope(dse::ExplorerKind::kAlgorithm1, eval, opt.run);

  SweepResult res;
  walk.on_level = [&](const dse::MilpRound& round,
                      const std::vector<dse::RobustEvaluation>&,
                      const dse::WalkResult& state) {
    res.evaluated += round.candidates.size();
    const dse::WalkRung& low = state.rungs.front();
    scope.progress(state.levels_evaluated, low.feasible, low.best.power_mw);
  };
  const dse::WalkResult w = dse::walk_levels(scenario, eval, scope, walk);
  res.milp_rounds = static_cast<std::uint64_t>(w.levels_proposed);
  res.complete = w.complete;
  scope.registry().counter("pareto.milp_rounds").add(res.milp_rounds);

  FrontBuilder fb(opt.front);
  for (const dse::WalkRung& r : w.rungs) {
    res.rungs.push_back({r.pdr_min, r.feasible, r.best});
    if (r.feasible) fb.insert(r.best);
  }
  finish(scope, res, fb);
  return res;
}

}  // namespace hi::pareto
