#include "pareto/sweep.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"
#include "dse/explorer.hpp"
#include "dse/milp_encoding.hpp"

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

/// Installs the sweep's registry on the evaluator for the call's
/// duration (mirrors dse::detail::RunScope; restores the previous one).
class MetricsScope {
 public:
  MetricsScope(dse::Evaluator& eval, obs::MetricsRegistry* m)
      : eval_(eval), installed_(m != nullptr) {
    if (installed_) prev_ = eval_.set_metrics(m);
  }
  ~MetricsScope() {
    if (installed_) eval_.set_metrics(prev_);
  }
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  dse::Evaluator& eval_;
  bool installed_;
  obs::MetricsRegistry* prev_ = nullptr;
};

/// Evaluates `cfgs` through `batch` and returns FrontPoints aligned
/// with `cfgs`.
std::vector<FrontPoint> evaluate_points(
    const std::vector<model::NetworkConfig>& cfgs, dse::RobustBatch& batch) {
  const std::vector<dse::RobustEvaluation> revs = batch.evaluate(cfgs);
  std::vector<FrontPoint> out;
  out.reserve(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    out.push_back(make_point(cfgs[i], revs[i]));
  }
  return out;
}

void record_front_counters(obs::MetricsRegistry* m, const FrontBuilder& fb,
                           const SweepResult& res) {
  if (m == nullptr) return;
  m->counter("pareto.points_offered").add(fb.offered());
  m->counter("pareto.dominated_dropped").add(fb.dominated_dropped());
  m->counter("pareto.displaced").add(fb.displaced());
  m->gauge("pareto.front_size").set(static_cast<double>(res.front.size()));
  m->counter("pareto.sweeps").add(1);
}

}  // namespace

SweepResult exhaustive_front(const model::Scenario& scenario,
                             dse::Evaluator& eval, const SweepOptions& opt) {
  const double t0 = steady_now_s();
  const std::vector<double> rungs = canonical_ladder(opt.pdr_ladder);
  MetricsScope scope(eval, opt.metrics);
  const std::uint64_t sims0 = eval.total_simulations();
  const std::uint64_t store0 = eval.total_store_hits();

  dse::RobustBatch batch(eval, opt.threads, opt.robust);
  const std::vector<FrontPoint> points =
      evaluate_points(scenario.feasible_configs(), batch);

  SweepResult res;
  FrontBuilder fb(opt.front);
  for (const FrontPoint& p : points) {
    fb.insert(p);
  }
  res.front = fb.front();
  // Per-rung optima fall out of the same evaluations: the lex_before
  // minimum among points meeting the rung.
  for (double pdr_min : rungs) {
    RungResult rr;
    rr.pdr_min = pdr_min;
    for (const FrontPoint& p : points) {
      if (p.pdr < pdr_min) continue;
      if (!rr.feasible || lex_before(p, rr.best)) {
        rr.feasible = true;
        rr.best = p;
      }
    }
    res.rungs.push_back(rr);
  }
  res.evaluated = points.size();
  res.simulations = eval.total_simulations() - sims0;
  res.store_hits = eval.total_store_hits() - store0;
  res.wall_time_s = steady_now_s() - t0;
  record_front_counters(opt.metrics, fb, res);
  if (opt.progress) {
    opt.progress(1);
  }
  return res;
}

SweepResult ladder_front(const model::Scenario& scenario, dse::Evaluator& eval,
                         const SweepOptions& opt) {
  const double t0 = steady_now_s();
  const std::vector<double> rung_bounds = canonical_ladder(opt.pdr_ladder);
  MetricsScope scope(eval, opt.metrics);
  const std::uint64_t sims0 = eval.total_simulations();
  const std::uint64_t store0 = eval.total_store_hits();

  dse::RobustBatch batch(eval, opt.threads, opt.robust);
  dse::MilpEncoding encoding(scenario, opt.robust.gamma);
  milp::Options milp_opt = opt.milp;
  if (opt.metrics != nullptr) {
    milp_opt.metrics = opt.metrics;
  }
  // Algorithm 1's sound certificate, one floor per rung.
  const dse::SoundFloor floor(scenario, eval.settings().sim, opt.robust.gamma,
                              rung_bounds);

  struct Rung {
    double pdr_min;
    bool open = true;
    bool have = false;
    FrontPoint best{};
  };
  std::vector<Rung> rungs;
  rungs.reserve(rung_bounds.size());
  for (double pdr_min : rung_bounds) {
    rungs.push_back(Rung{pdr_min});
  }

  SweepResult res;

  int rounds = 0;
  for (; rounds < opt.max_rounds; ++rounds) {
    const dse::MilpRound round = encoding.run_milp(milp_opt);
    if (round.candidates.empty()) {
      // MILP dry: every feasible configuration has been proposed and
      // evaluated, so every incumbent is final and rungs without one
      // are genuinely infeasible.
      for (Rung& r : rungs) r.open = false;
      break;
    }
    ++res.milp_rounds;
    res.milp_bnb_nodes += round.bnb_nodes;

    // Close every rung whose certificate holds at this level: all cells
    // at or above it — including the one just proposed — have their
    // measured floor above the rung's incumbent, so no remaining
    // simulation can win (nor tie: the bound is strict).
    bool any_open = false;
    for (std::size_t ri = 0; ri < rungs.size(); ++ri) {
      Rung& r = rungs[ri];
      if (!r.open) continue;
      if (r.have && floor.certifies(round.power_mw, ri, r.best.power_mw)) {
        r.open = false;
        if (opt.metrics != nullptr) {
          opt.metrics->counter("pareto.rungs_closed_by_floor").add(1);
        }
        continue;
      }
      any_open = true;
    }
    if (!any_open) {
      break;  // every front point certified without touching this level
    }

    const std::vector<FrontPoint> points =
        evaluate_points(round.candidates, batch);
    res.evaluated += points.size();

    for (const FrontPoint& p : points) {
      for (Rung& r : rungs) {
        if (!r.open || p.pdr < r.pdr_min) continue;
        if (!r.have || lex_before(p, r.best)) {
          r.have = true;
          r.best = p;
        }
      }
    }

    encoding.add_power_cut_above(round.power_mw);
    if (opt.metrics != nullptr) {
      opt.metrics->counter("pareto.cuts_added").add(1);
    }
    if (opt.progress) {
      opt.progress(rounds + 1);
    }
  }
  res.complete = std::none_of(rungs.begin(), rungs.end(),
                              [](const Rung& r) { return r.open; });

  FrontBuilder fb(opt.front);
  for (const Rung& r : rungs) {
    RungResult rr;
    rr.pdr_min = r.pdr_min;
    rr.feasible = r.have;
    rr.best = r.best;
    res.rungs.push_back(rr);
    if (r.have) {
      fb.insert(r.best);
    }
  }
  res.front = fb.front();
  res.simulations = eval.total_simulations() - sims0;
  res.store_hits = eval.total_store_hits() - store0;
  res.wall_time_s = steady_now_s() - t0;
  if (opt.metrics != nullptr) {
    opt.metrics->counter("pareto.milp_rounds").add(res.milp_rounds);
  }
  record_front_counters(opt.metrics, fb, res);
  return res;
}

}  // namespace hi::pareto
