#include "campaign/plan.hpp"

#include <utility>

#include "check/scenario_gen.hpp"
#include "store/json.hpp"

namespace hi::campaign {

std::optional<CampaignPlan> CampaignPlan::build(const PlanSpec& spec,
                                                std::string* error) {
  CampaignPlan plan;
  plan.spec_ = spec;

  dse::EvaluatorSettings base;
  base.sim.duration_s = spec.tsim_s;
  base.sim.seed = spec.seed;
  base.runs = spec.runs;

  for (const std::string& file : spec.scenario_files) {
    const std::optional<std::string> text = store::detail::read_file(file);
    if (!text) {
      if (error != nullptr) {
        *error = "cannot open scenario file '" + file + "'";
      }
      return std::nullopt;
    }
    std::string err;
    const auto sc = store::scenario_from_json(*text, &err);
    if (!sc) {
      if (error != nullptr) {
        *error = file + ": " + err;
      }
      return std::nullopt;
    }
    plan.rows_.push_back({file, *sc, base, {}, {}, {}});
  }
  for (const std::uint64_t seed : spec.gen_seeds) {
    check::ScenarioSpec gen = check::make_scenario(seed);
    plan.rows_.push_back({"gen-" + std::to_string(seed), gen.scenario,
                          std::move(gen.settings), {}, {}, {}});
  }
  if (plan.rows_.empty()) {
    plan.rows_.push_back({"paper-4.1", model::Scenario{}, base, {}, {}, {}});
  }

  for (PlanRow& row : plan.rows_) {
    row.scenario_fp = store::scenario_fingerprint(row.scenario);
    row.settings_fp = store::settings_fingerprint(
        row.settings, store::StoreOptions{}.channel_tag);
    row.cells.reserve(spec.pdr_grid.size());
    for (const double pdr_min : spec.pdr_grid) {
      const dse::ExplorationOptions run_opt = plan.cell_options(pdr_min);
      row.cells.push_back(store::CellKey{
          row.scenario_fp, row.settings_fp,
          store::options_fingerprint(run_opt, spec.explorer), pdr_min});
    }
  }
  return plan;
}

dse::ExplorationOptions CampaignPlan::cell_options(double pdr_min) const {
  dse::ExplorationOptions run_opt;
  run_opt.pdr_min = pdr_min;
  run_opt.budget = spec_.budget;
  run_opt.threads = spec_.threads;
  run_opt.robust = spec_.robust;
  return run_opt;
}

}  // namespace hi::campaign
