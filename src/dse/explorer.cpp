#include "dse/explorer.hpp"

#include <chrono>
#include <utility>

#include "common/assert.hpp"

namespace hi::dse {

namespace {

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(ExplorerKind kind) {
  switch (kind) {
    case ExplorerKind::kAlgorithm1:
      return "algorithm1";
    case ExplorerKind::kExhaustive:
      return "exhaustive";
    case ExplorerKind::kAnnealing:
      return "annealing";
    case ExplorerKind::kFastIlp:
      return "fast_ilp";
  }
  return "unknown";
}

ExplorationResult explore(ExplorerKind kind, const model::Scenario& scenario,
                          Evaluator& eval, const ExplorationOptions& opt) {
  switch (kind) {
    case ExplorerKind::kAlgorithm1:
      return run_algorithm1(scenario, eval, opt);
    case ExplorerKind::kExhaustive:
      return run_exhaustive(scenario, eval, opt);
    case ExplorerKind::kAnnealing:
      return run_annealing(scenario, eval, opt);
    case ExplorerKind::kFastIlp:
      return run_fast_ilp(scenario, eval, opt);
  }
  HI_ASSERT_MSG(false, "unknown ExplorerKind " << static_cast<int>(kind));
  return {};  // unreachable; assert_fail is [[noreturn]]
}

RunScope::RunScope(ExplorerKind kind, Evaluator& eval,
                   const ExplorationOptions& opt)
    : kind_(kind), eval_(eval), opt_(opt) {
  HI_REQUIRE(opt.pdr_min >= 0.0 && opt.pdr_min <= 1.0,
             "pdr_min must be in [0,1], got " << opt.pdr_min);
  HI_REQUIRE(opt.threads >= -1,
             "threads must be >= -1 (-1 = inherit the evaluator's), got "
                 << opt.threads);
  HI_REQUIRE(opt.budget >= -1,
             "budget must be >= -1 (-1 = the strategy's default), got "
                 << opt.budget);
  HI_REQUIRE(opt.alpha_kappa > 0.0 && opt.alpha_kappa <= 1.0,
             "alpha_kappa must be in (0,1], got " << opt.alpha_kappa);
  threads_ = opt.threads >= 0 ? opt.threads : eval.settings().threads;

  registry_ = opt.metrics != nullptr ? opt.metrics : eval.metrics();
  if (registry_ == nullptr) {
    // No registry anywhere: the run still measures itself so the result
    // snapshot is always populated (the paper's headline numbers ride
    // on it), just into a private registry nobody else sees.
    owned_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_.get();
  }
  if (registry_ != eval.metrics()) {
    previous_ = eval.set_metrics(registry_);
    installed_ = true;
  }
  start_ = registry_->snapshot();
  // total_simulations: a robust run pays into the realization children
  // too; with no children this is exactly simulations(), so the
  // single-realization accounting is unchanged.
  sims0_ = eval.total_simulations();
  store_hits0_ = eval.total_store_hits();
  t0_s_ = steady_now_s();
}

RunScope::~RunScope() {
  if (installed_) {
    eval_.set_metrics(previous_);
  }
}

void RunScope::progress(int iteration, bool feasible,
                        double best_power_mw) const {
  if (!opt_.progress) {
    return;
  }
  ProgressInfo info;
  info.kind = kind_;
  info.iteration = iteration;
  info.simulations = eval_.total_simulations() - sims0_;
  info.feasible = feasible;
  info.best_power_mw = best_power_mw;
  opt_.progress(info);
}

RunTotals RunScope::finish() {
  RunTotals t;
  t.simulations = eval_.total_simulations() - sims0_;
  t.store_hits = eval_.total_store_hits() - store_hits0_;
  t.wall_time_s = steady_now_s() - t0_s_;
  registry_->histogram("dse.run_s").observe(t.wall_time_s);
  registry_->counter("dse.runs").add(1);
  t.metrics = registry_->snapshot().delta_since(start_);
  HI_ASSERT_MSG(t.metrics.counter("dse.simulations") == t.simulations,
                "metric dse.simulations ("
                    << t.metrics.counter("dse.simulations")
                    << ") disagrees with the evaluator's count ("
                    << t.simulations << ")");
  return t;
}

void RunScope::finish(ExplorationResult& res) {
  RunTotals t = finish();
  res.simulations = t.simulations;
  res.realizations = opt_.robust.realizations;
  res.gamma = opt_.robust.gamma;
  res.wall_time_s = t.wall_time_s;
  res.metrics = std::move(t.metrics);
  res.milp_bnb_nodes = res.metrics.counter("milp.bnb_nodes");
}

}  // namespace hi::dse
