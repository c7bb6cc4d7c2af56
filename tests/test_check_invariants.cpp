// Tier-1 tests of the simulator invariant auditor (check/invariants.hpp):
// real runs across the MAC x routing grid must audit clean, ScenarioGen
// instances must audit clean, and — just as important — the auditor must
// actually catch each class of violation when the inputs are tampered
// with (an auditor that never fires proves nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "check/invariants.hpp"
#include "check/properties.hpp"
#include "check/scenario_gen.hpp"
#include "model/design_space.hpp"

namespace hi::check {
namespace {

model::NetworkConfig grid_config(model::MacProtocol mac,
                                 model::RoutingProtocol routing) {
  const model::Scenario sc;  // the paper's Sec. 4.1 defaults
  const model::Topology t = model::Topology::from_locations({0, 1, 3, 5});
  return sc.make_config(t, /*tx_level=*/1, mac, routing);
}

net::SimParams fast_params(std::uint64_t seed) {
  net::SimParams p;
  p.duration_s = 5.0;
  p.seed = seed;
  return p;
}

bool any_contains(const std::vector<std::string>& violations,
                  const std::string& needle) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const std::string& v) {
                       return v.find(needle) != std::string::npos;
                     });
}

TEST(Invariants, CleanAcrossMacRoutingGrid) {
  for (const auto mac : {model::MacProtocol::kCsma, model::MacProtocol::kTdma}) {
    for (const auto rt :
         {model::RoutingProtocol::kStar, model::RoutingProtocol::kMesh}) {
      const model::NetworkConfig cfg = grid_config(mac, rt);
      const AuditedRun run = audited_simulate(cfg, fast_params(11));
      for (const std::string& v : run.violations) {
        ADD_FAILURE() << cfg.label() << ": " << v;
      }
      EXPECT_GT(run.result.medium.transmissions, 0u) << cfg.label();
      EXPECT_FALSE(run.trace.empty()) << cfg.label();
    }
  }
}

TEST(Invariants, CleanOnGeneratedScenarios) {
  for (const std::uint64_t seed : {3001ULL, 3002ULL, 3003ULL}) {
    const ScenarioSpec spec = make_scenario(seed);
    const std::vector<std::string> violations = check_sim_invariants(spec, 2);
    for (const std::string& v : violations) {
      ADD_FAILURE() << spec.summary() << ": " << v;
    }
  }
}

/// Shared fixture: one clean audited run to tamper with.
class TamperedAudit : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = grid_config(model::MacProtocol::kCsma,
                       model::RoutingProtocol::kStar);
    params_ = fast_params(23);
    run_ = audited_simulate(cfg_, params_);
    ASSERT_TRUE(run_.violations.empty());
  }

  std::vector<std::string> reaudit() const {
    return audit_run(cfg_, params_, run_.result, run_.metrics, run_.trace);
  }

  model::NetworkConfig cfg_;
  net::SimParams params_;
  AuditedRun run_;
};

TEST_F(TamperedAudit, CatchesPdrOutOfRange) {
  run_.result.pdr = 1.5;
  EXPECT_TRUE(any_contains(reaudit(), "outside [0, 1]"));
}

TEST_F(TamperedAudit, CatchesPdrMeanMismatch) {
  run_.result.pdr = std::max(0.0, run_.result.pdr - 0.25);
  EXPECT_TRUE(any_contains(reaudit(), "mean of the node PDRs"));
}

TEST_F(TamperedAudit, CatchesSubBaselinePower) {
  run_.result.nodes.at(1).power_mw = cfg_.app.baseline_mw / 2.0;
  EXPECT_TRUE(any_contains(reaudit(), "below the baseline"));
}

TEST_F(TamperedAudit, CatchesWorstPowerMismatch) {
  run_.result.worst_power_mw += 1.0;
  EXPECT_TRUE(any_contains(reaudit(), "lifetime-relevant maximum"));
}

TEST_F(TamperedAudit, CatchesTxConservationBreak) {
  run_.result.nodes.at(0).mac.sent += 1;
  EXPECT_TRUE(any_contains(reaudit(), "tx conservation"));
}

TEST_F(TamperedAudit, CatchesCounterDrift) {
  // A counter that stops mirroring the SimResult is an observability
  // regression even if the SimResult itself is right.
  run_.metrics.counters["net.medium.transmissions"] += 3;
  EXPECT_TRUE(any_contains(reaudit(), "net.medium.transmissions"));
}

TEST_F(TamperedAudit, CatchesDispatchCountDrift) {
  // Only a transmission end runs several events in one dispatch, one per
  // signal end, so dispatches lie in [events - offered, events].
  const std::uint64_t events = run_.metrics.counter("des.events");
  ASSERT_LT(run_.metrics.counter("des.dispatches"), events);
  run_.metrics.counters["des.dispatches"] = events + 1;
  EXPECT_TRUE(any_contains(reaudit(), "exceed des.events"));
  run_.metrics.counters["des.dispatches"] = 0;
  EXPECT_TRUE(any_contains(reaudit(), "exceed deliveries offered"));
}

TEST_F(TamperedAudit, CatchesTimeTravelInTrace) {
  ASSERT_GE(run_.trace.size(), 2u);
  std::swap(run_.trace.front().t_s, run_.trace.back().t_s);
  EXPECT_TRUE(any_contains(reaudit(), "time went backwards"));
}

TEST_F(TamperedAudit, CatchesDroppedTraceEvents) {
  const auto is_tx = [](const obs::TraceEvent& e) {
    return e.kind == obs::TraceKind::kTx;
  };
  const auto it =
      std::find_if(run_.trace.begin(), run_.trace.end(), is_tx);
  ASSERT_NE(it, run_.trace.end());
  run_.trace.erase(it);
  EXPECT_TRUE(any_contains(reaudit(), "trace tx count"));
}

TEST_F(TamperedAudit, CatchesKernelSummaryDrift) {
  run_.result.events += 7;
  EXPECT_TRUE(any_contains(reaudit(), "events disagree"));
}

}  // namespace
}  // namespace hi::check
