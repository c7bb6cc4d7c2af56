#include "pareto/sweep.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"
#include "dse/level_walk.hpp"

namespace hi::pareto {

namespace {

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

/// One sweep's bookkeeping: installs the sweep's registry on the
/// evaluator for the call's duration (mirrors dse::detail::RunScope;
/// restores the previous one), and finish() fills the result's front,
/// simulation counts and wall time and records the `pareto.*` counters.
class SweepScope {
 public:
  SweepScope(dse::Evaluator& eval, const SweepOptions& opt)
      : eval_(eval),
        m_(opt.metrics),
        prev_(m_ != nullptr ? eval.set_metrics(m_) : nullptr) {}
  ~SweepScope() {
    if (m_ != nullptr) eval_.set_metrics(prev_);
  }
  SweepScope(const SweepScope&) = delete;
  SweepScope& operator=(const SweepScope&) = delete;

  void finish(SweepResult& res, const FrontBuilder& fb) const {
    res.front = fb.front();
    res.simulations = eval_.total_simulations() - sims0_;
    res.store_hits = eval_.total_store_hits() - store0_;
    res.wall_time_s = steady_now_s() - t0_;
    if (m_ == nullptr) return;
    m_->counter("pareto.points_offered").add(fb.offered());
    m_->counter("pareto.dominated_dropped").add(fb.dominated_dropped());
    m_->counter("pareto.displaced").add(fb.displaced());
    m_->gauge("pareto.front_size").set(static_cast<double>(res.front.size()));
    m_->counter("pareto.sweeps").add(1);
  }

 private:
  double t0_ = steady_now_s();
  dse::Evaluator& eval_;
  obs::MetricsRegistry* m_;
  obs::MetricsRegistry* prev_;
  std::uint64_t sims0_ = eval_.total_simulations();
  std::uint64_t store0_ = eval_.total_store_hits();
};

}  // namespace

SweepResult exhaustive_front(const model::Scenario& scenario,
                             dse::Evaluator& eval, const SweepOptions& opt) {
  const std::vector<double> rungs = canonical_ladder(opt.pdr_ladder);
  const SweepScope scope(eval, opt);
  dse::RobustBatch batch(eval, opt.threads, opt.robust);
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
  scope.finish(res, fb);
  if (opt.progress) {
    opt.progress(1);
  }
  return res;
}

SweepResult ladder_front(const model::Scenario& scenario, dse::Evaluator& eval,
                         const SweepOptions& opt) {
  const SweepScope scope(eval, opt);
  // The walk records walk.* and milp.* into the sweep's registry, or a
  // private one, so milp_bnb_nodes always has its counter to read.
  obs::MetricsRegistry own;
  obs::MetricsRegistry& reg = opt.metrics != nullptr ? *opt.metrics : own;
  const std::uint64_t bnb0 = reg.counter("milp.bnb_nodes").value();

  SweepResult res;
  dse::WalkOptions walk;
  walk.pdr_mins = canonical_ladder(opt.pdr_ladder);
  walk.max_levels = opt.max_rounds;
  walk.threads = opt.threads;
  walk.robust = opt.robust;
  walk.milp = opt.milp;
  walk.metrics = &reg;
  walk.on_level = [&](const dse::MilpRound& round,
                      const std::vector<dse::RobustEvaluation>&,
                      const dse::WalkResult& state) {
    res.evaluated += round.candidates.size();
    if (opt.progress) opt.progress(state.levels_evaluated);
  };
  const dse::WalkResult w = dse::walk_levels(scenario, eval, walk);
  res.milp_rounds = static_cast<std::uint64_t>(w.levels_proposed);
  res.milp_bnb_nodes = reg.counter("milp.bnb_nodes").value() - bnb0;
  res.complete = w.complete;
  reg.counter("pareto.milp_rounds").add(res.milp_rounds);

  FrontBuilder fb(opt.front);
  for (const dse::WalkRung& r : w.rungs) {
    res.rungs.push_back({r.pdr_min, r.feasible, r.best});
    if (r.feasible) fb.insert(r.best);
  }
  scope.finish(res, fb);
  return res;
}

}  // namespace hi::pareto
