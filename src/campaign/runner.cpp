#include "campaign/runner.hpp"

#include <chrono>
#include <ostream>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "dse/robustness.hpp"
#include "net/network.hpp"

namespace hi::campaign {

namespace {

void print_recovery_warning(const RunConfig& cfg,
                            const store::EvalStore& store) {
  if (cfg.recovery_warnings != nullptr && !store.recovery().clean()) {
    *cfg.recovery_warnings
        << "store recovery: dropped " << store.recovery().corrupt_dropped
        << " corrupt record(s), truncated "
        << store.recovery().truncated_bytes << " trailing byte(s)\n";
  }
}

store::CellResult to_cell_result(const dse::ExplorationResult& res) {
  store::CellResult cr;
  cr.feasible = res.feasible;
  cr.best = res.best;
  cr.best_power_mw = res.best_power_mw;
  cr.best_pdr = res.best_pdr;
  cr.best_nlt_s = res.best_nlt_s;
  cr.simulations = res.simulations;
  cr.iterations = res.iterations;
  return cr;
}

}  // namespace

CampaignReport run_single(const CampaignPlan& plan, const RunConfig& cfg,
                          obs::MetricsRegistry* metrics) {
  HI_REQUIRE(!cfg.store_path.empty(), "run_single needs a store path");
  // Reject what every cell would reject before the store file exists.
  dse::require_valid(plan.spec().robust);
  for (const PlanRow& row : plan.rows()) net::require_valid(row.settings.sim);
  store::StoreOptions sopt;
  sopt.fsync = cfg.fsync;
  sopt.metrics = metrics;
  store::EvalStore store(cfg.store_path, sopt);
  print_recovery_warning(cfg, store);

  CampaignReport report;
  report.store_path = store.path();
  report.recovery = store.recovery();
  for (const PlanRow& row : plan.rows()) {
    dse::Evaluator eval(row.settings);
    const store::WarmStartStats warm =
        store::warm_start(eval, store, plan.spec().robust.realizations);
    HI_REQUIRE(warm.settings_fp == row.settings_fp,
               "plan/settings fingerprint drift on row '" << row.name << "'");
    for (const store::CellKey& key : row.cells) {
      CellReport cell;
      cell.scenario = row.name;
      cell.pdr_min = key.pdr_min;
      if (cfg.resume) {
        if (const auto done = store.find_cell(key)) {
          cell.skipped = true;
          cell.result = *done;
          report.cells.push_back(std::move(cell));
          continue;
        }
      }
      dse::ExplorationOptions run_opt = plan.cell_options(key.pdr_min);
      run_opt.metrics = metrics;
      const dse::ExplorationResult res =
          dse::explore(plan.explorer(), row.scenario, eval, run_opt);
      cell.result = to_cell_result(res);
      cell.store_hits = res.metrics.counter("dse.store_hits");
      store.put_cell(key, cell.result);  // fsynced checkpoint
      report.cells.push_back(std::move(cell));
      if (cfg.cell_delay_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg.cell_delay_ms));
      }
    }
  }
  report.stored_evals = store.eval_count();
  report.stored_cells = store.cell_count();
  return report;
}

}  // namespace hi::campaign
