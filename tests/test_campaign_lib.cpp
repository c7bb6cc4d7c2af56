// Units for the hi::campaign library: plan resolution (grid, tokens,
// precomputed cell keys), the lease-based claim protocol (acquire /
// held / steal / recover / done, expiry accounting), the worker-report
// pipe codec, the JSON report's number format, and run_single() as the
// library-level campaign loop (resume must serve checkpoints with zero
// fresh simulations).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/claims.hpp"
#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "store/json.hpp"
#include "store/serialize.hpp"

namespace {

using namespace hi;
using campaign::CampaignPlan;
using campaign::ClaimBoard;
using campaign::ClaimOutcome;
using campaign::PlanSpec;

void remove_tree(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
}

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
    // The precomputed keys must match a by-hand recomputation — the
    // fabric's resume correctness rests on every process deriving the
    // same identities from the same flags.
    EXPECT_EQ(row.scenario_fp, store::scenario_fingerprint(row.scenario));
    EXPECT_EQ(row.settings_fp,
              store::settings_fingerprint(row.settings, spec.channel_tag));
    EXPECT_EQ(row.cells[0].pdr_min, 0.5);
    EXPECT_EQ(row.cells[1].pdr_min, 0.9);
    EXPECT_EQ(row.cells[0].options_fp,
              store::options_fingerprint(plan->cell_options(0.5),
                                         spec.explorer));
  }
  // Row tokens are stable, unique, and carry the fingerprint fragment.
  const std::string t0 = plan->row_token(0);
  const std::string t1 = plan->row_token(1);
  EXPECT_NE(t0, t1);
  EXPECT_EQ(t0.rfind("row-0-", 0), 0u) << t0;
  EXPECT_EQ(t0, "row-0-" + plan->rows()[0].scenario_fp.hex().substr(0, 8));
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

TEST(ClaimBoardTest, AcquireHoldDoneLifecycle) {
  const std::string dir = "claims_lifecycle_test";
  remove_tree(dir);
  ClaimBoard a(dir, /*run_id=*/1, /*slot=*/0, /*lease_ms=*/60000, nullptr);
  ClaimBoard b(dir, /*run_id=*/1, /*slot=*/1, /*lease_ms=*/60000, nullptr);

  EXPECT_EQ(a.try_claim("row-0-aaaa", true), ClaimOutcome::kAcquired);
  // A live, renewing owner is never stolen from.
  EXPECT_EQ(b.try_claim("row-0-aaaa", true), ClaimOutcome::kHeld);

  const auto info = b.read_claim("row-0-aaaa");
  ASSERT_TRUE(info);
  EXPECT_EQ(info->slot, 0);
  EXPECT_EQ(info->run_id, 1u);
  EXPECT_EQ(info->gen, 0);

  a.mark_done("row-0-aaaa");
  a.release("row-0-aaaa");
  EXPECT_TRUE(b.is_done("row-0-aaaa"));
  EXPECT_EQ(b.try_claim("row-0-aaaa", true), ClaimOutcome::kDone);
  EXPECT_EQ(a.tally().rows_claimed, 1u);
  EXPECT_EQ(b.tally().rows_claimed, 0u);
  remove_tree(dir);
}

TEST(ClaimBoardTest, ExpiredLeaseIsStolenExactlyOnce) {
  const std::string dir = "claims_steal_test";
  remove_tree(dir);
  // Owner with a tiny lease that never renews: the crash stand-in (the
  // owner pid — this process — is alive, so staleness is pure expiry).
  ClaimBoard owner(dir, /*run_id=*/7, /*slot=*/0, /*lease_ms=*/40, nullptr);
  EXPECT_EQ(owner.try_claim("row-1-bbbb", true), ClaimOutcome::kAcquired);

  ClaimBoard same_run(dir, 7, 1, 40, nullptr);
  ClaimBoard other_run(dir, 8, 2, 40, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  // --no-steal never takes over, no matter how stale.
  EXPECT_EQ(same_run.try_claim("row-1-bbbb", false), ClaimOutcome::kHeld);
  // Same run_id -> a steal; the expiry is accounted.
  EXPECT_EQ(same_run.try_claim("row-1-bbbb", true), ClaimOutcome::kStolen);
  EXPECT_EQ(same_run.tally().steals, 1u);
  EXPECT_EQ(same_run.tally().lease_expiries, 1u);
  const auto info = other_run.read_claim("row-1-bbbb");
  ASSERT_TRUE(info);
  EXPECT_EQ(info->gen, 1);  // the steal bumped the generation

  // A later run's board sees the (also expired) gen-1 claim and
  // recovers it — and records it as a recovery, not a steal.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(other_run.try_claim("row-1-bbbb", true), ClaimOutcome::kRecovered);
  EXPECT_EQ(other_run.tally().recoveries, 1u);
  EXPECT_EQ(other_run.tally().steals, 0u);
  remove_tree(dir);
}

TEST(ClaimBoardTest, RenewalKeepsTheLeaseFresh) {
  const std::string dir = "claims_renew_test";
  remove_tree(dir);
  ClaimBoard owner(dir, 1, 0, /*lease_ms=*/80, nullptr);
  ClaimBoard rival(dir, 1, 1, /*lease_ms=*/80, nullptr);
  EXPECT_EQ(owner.try_claim("row-2-cccc", true), ClaimOutcome::kAcquired);
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    owner.renew_all();
    EXPECT_EQ(rival.try_claim("row-2-cccc", true), ClaimOutcome::kHeld);
  }
  remove_tree(dir);
}

TEST(WorkerReportTest, PipeCodecRoundTripsAndRejectsTruncation) {
  campaign::WorkerReport rep;
  rep.slot = 2;
  rep.pid = 4242;
  rep.rows_claimed = 3;
  rep.cells_done = 7;
  rep.cells_skipped = 5;
  rep.fresh_simulations = 123;
  rep.store_hits = 456;
  rep.steals = 1;
  rep.recoveries = 2;
  rep.lease_expiries = 1;
  rep.wall_s = 1.5;
  const std::string bytes = rep.encode();

  campaign::WorkerReport out;
  ASSERT_TRUE(campaign::WorkerReport::decode(bytes, &out));
  EXPECT_TRUE(out.reported);
  EXPECT_EQ(out.slot, 2);
  EXPECT_EQ(out.pid, 4242);
  EXPECT_EQ(out.rows_claimed, 3u);
  EXPECT_EQ(out.cells_done, 7u);
  EXPECT_EQ(out.cells_skipped, 5u);
  EXPECT_EQ(out.fresh_simulations, 123u);
  EXPECT_EQ(out.store_hits, 456u);
  EXPECT_EQ(out.steals, 1u);
  EXPECT_EQ(out.recoveries, 2u);
  EXPECT_EQ(out.lease_expiries, 1u);
  EXPECT_EQ(out.wall_s, 1.5);

  // A SIGKILLed worker leaves a short (or empty) pipe — never decoded.
  EXPECT_FALSE(campaign::WorkerReport::decode("", &out));
  EXPECT_FALSE(
      campaign::WorkerReport::decode(bytes.substr(0, bytes.size() - 3), &out));
  EXPECT_FALSE(campaign::WorkerReport::decode(bytes + "x", &out));
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
