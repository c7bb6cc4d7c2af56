// Units for the hi::campaign library: plan resolution (grid,
// precomputed cell keys), the JSON report's number format, and
// run_single() as the library-level campaign loop (resume must serve
// checkpoints with zero fresh simulations).
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "store/json.hpp"
#include "store/serialize.hpp"

namespace {

using namespace hi;
using campaign::CampaignPlan;
using campaign::PlanSpec;

TEST(CampaignPlanTest, ResolvesGenRowsWithPrecomputedKeys) {
  PlanSpec spec;
  spec.gen_seeds = {5, 6};
  spec.pdr_grid = {0.5, 0.9};
  std::string err;
  const auto plan = CampaignPlan::build(spec, &err);
  ASSERT_TRUE(plan) << err;
  ASSERT_EQ(plan->rows().size(), 2u);
  EXPECT_EQ(plan->cell_count(), 4u);
  EXPECT_EQ(plan->rows()[0].name, "gen-5");
  EXPECT_EQ(plan->rows()[1].name, "gen-6");
  for (const campaign::PlanRow& row : plan->rows()) {
    ASSERT_EQ(row.cells.size(), 2u);
    // The precomputed keys must match a by-hand recomputation — resume
    // correctness rests on every run deriving the same identities from
    // the same flags, under the tag run_single() opens its store with.
    EXPECT_EQ(row.scenario_fp, store::scenario_fingerprint(row.scenario));
    EXPECT_EQ(row.settings_fp,
              store::settings_fingerprint(row.settings,
                                          store::StoreOptions{}.channel_tag));
    EXPECT_EQ(row.cells[0].pdr_min, 0.5);
    EXPECT_EQ(row.cells[1].pdr_min, 0.9);
    EXPECT_EQ(row.cells[0].options_fp,
              store::options_fingerprint(plan->cell_options(0.5),
                                         spec.explorer));
  }
}

TEST(CampaignPlanTest, EmptySpecFallsBackToPaperScenario) {
  std::string err;
  const auto plan = CampaignPlan::build(PlanSpec{}, &err);
  ASSERT_TRUE(plan) << err;
  ASSERT_EQ(plan->rows().size(), 1u);
  EXPECT_EQ(plan->rows()[0].name, "paper-4.1");
  EXPECT_EQ(plan->cell_count(), 3u);  // default grid 0.5, 0.7, 0.9
}

TEST(CampaignPlanTest, MissingScenarioFileIsAnError) {
  PlanSpec spec;
  spec.scenario_files = {"does-not-exist.json"};
  std::string err;
  EXPECT_FALSE(CampaignPlan::build(spec, &err));
  EXPECT_NE(err.find("does-not-exist.json"), std::string::npos) << err;
}

TEST(CampaignReportTest, JsonDoublesRoundTripAndInfinityIsNull) {
  campaign::CampaignReport rep;
  rep.store_path = "a \"quoted\" path";
  campaign::CellReport feasible;
  feasible.scenario = "paper-4.1";
  feasible.pdr_min = 0.9;
  feasible.result.feasible = true;
  feasible.result.best_power_mw = 0.3710644123722949;
  feasible.result.best_pdr = 0.875;
  campaign::CellReport infeasible = feasible;
  infeasible.result.feasible = false;
  infeasible.result.best_power_mw = std::numeric_limits<double>::infinity();
  rep.cells = {feasible, infeasible};
  std::ostringstream os;
  rep.print(os, /*json=*/true);
  const std::string json = os.str();

  std::string err;
  EXPECT_TRUE(store::detail::JsonParser(json).parse(&err).has_value()) << err;
  EXPECT_NE(json.find("\"best_power_mw\": 0.3710644123722949"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"best_power_mw\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"store\": \"a \\\"quoted\\\" path\""),
            std::string::npos)
      << json;
}

TEST(RunSingleTest, ResumeServesCheckpointsWithZeroFreshSimulations) {
  const std::string store_path = "campaign_lib_single.store";
  std::remove(store_path.c_str());
  PlanSpec spec;
  spec.gen_seeds = {5};
  spec.pdr_grid = {0.5, 0.7};
  std::string err;
  const auto plan = CampaignPlan::build(spec, &err);
  ASSERT_TRUE(plan) << err;

  campaign::RunConfig cfg;
  cfg.store_path = store_path;
  obs::MetricsRegistry metrics;
  const campaign::CampaignReport first =
      campaign::run_single(*plan, cfg, &metrics);
  ASSERT_EQ(first.cells.size(), 2u);
  EXPECT_EQ(first.skipped_cells(), 0u);
  EXPECT_GT(first.total_fresh_simulations(), 0u);
  EXPECT_EQ(first.stored_cells, 2u);
  EXPECT_EQ(first.stored_evals, first.total_fresh_simulations());

  cfg.resume = true;
  const campaign::CampaignReport resumed =
      campaign::run_single(*plan, cfg, &metrics);
  EXPECT_EQ(resumed.skipped_cells(), 2u);
  EXPECT_EQ(resumed.total_fresh_simulations(), 0u);
  // The skipped cells replay the first run's results bit-for-bit.
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(resumed.cells[i].result.best_power_mw,
              first.cells[i].result.best_power_mw);
    EXPECT_EQ(resumed.cells[i].result.simulations,
              first.cells[i].result.simulations);
  }
  std::remove(store_path.c_str());
}

}  // namespace
