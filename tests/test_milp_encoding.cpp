// Unit tests for the MILP encoding of the relaxed problem P̃
// (dse/milp_encoding.hpp).
#include "dse/milp_encoding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "lp/simplex.hpp"
#include "model/power.hpp"

namespace hi::dse {
namespace {

TEST(MilpEncoding, FirstRoundIsCheapestStar) {
  model::Scenario sc;
  MilpEncoding enc(sc);
  const MilpRound round = enc.run_milp();
  ASSERT_EQ(round.status, lp::Status::kOptimal);
  // Cheapest cell: star, -20 dBm, N = 4.  All candidates must agree with
  // the analytic power of that cell.
  for (const auto& cfg : round.candidates) {
    EXPECT_EQ(cfg.routing.protocol, model::RoutingProtocol::kStar);
    EXPECT_EQ(cfg.tx_level_index, 0);
    EXPECT_EQ(cfg.topology.count(), 4);
    EXPECT_NEAR(model::node_power_mw(cfg), round.power_mw, 1e-9);
    EXPECT_TRUE(sc.topology_feasible(cfg.topology));
  }
  // Placements: one of each {hip pair} x {foot pair} x {wrist pair} = 8,
  // times 2 MAC options = 16 alternative optima.
  EXPECT_EQ(round.candidates.size(), 16u);
}

TEST(MilpEncoding, PoolContainsBothMacs) {
  model::Scenario sc;
  MilpEncoding enc(sc);
  const MilpRound round = enc.run_milp();
  int csma = 0, tdma = 0;
  for (const auto& cfg : round.candidates) {
    (cfg.mac.protocol == model::MacProtocol::kCsma ? csma : tdma)++;
  }
  EXPECT_EQ(csma, 8);
  EXPECT_EQ(tdma, 8);
}

TEST(MilpEncoding, CandidatesAreDistinct) {
  model::Scenario sc;
  MilpEncoding enc(sc);
  const MilpRound round = enc.run_milp();
  std::set<std::uint32_t> keys;
  for (const auto& cfg : round.candidates) {
    EXPECT_TRUE(keys.insert(cfg.design_key()).second);
  }
}

TEST(MilpEncoding, PowerCutAdvancesToNextLevel) {
  model::Scenario sc;
  MilpEncoding enc(sc);
  const std::vector<double> levels = enc.achievable_power_levels();
  ASSERT_GE(levels.size(), 3u);
  MilpRound r1 = enc.run_milp();
  ASSERT_EQ(r1.status, lp::Status::kOptimal);
  EXPECT_NEAR(r1.power_mw, levels[0], 1e-9);
  enc.add_power_cut_above(r1.power_mw);
  MilpRound r2 = enc.run_milp();
  ASSERT_EQ(r2.status, lp::Status::kOptimal);
  EXPECT_NEAR(r2.power_mw, levels[1], 1e-9);
  EXPECT_GT(r2.power_mw, r1.power_mw);
  enc.add_power_cut_above(r2.power_mw);
  MilpRound r3 = enc.run_milp();
  ASSERT_EQ(r3.status, lp::Status::kOptimal);
  EXPECT_NEAR(r3.power_mw, levels[2], 1e-9);
}

TEST(MilpEncoding, SecondLevelIsMinusTenStar) {
  // Level order sanity: the radio Rx draw dominates, so the three star
  // N=4 levels come first (by Tx power), then larger stars, then meshes.
  model::Scenario sc;
  MilpEncoding enc(sc);
  enc.add_power_cut_above(enc.run_milp().power_mw);
  const MilpRound r2 = enc.run_milp();
  for (const auto& cfg : r2.candidates) {
    EXPECT_EQ(cfg.routing.protocol, model::RoutingProtocol::kStar);
    EXPECT_EQ(cfg.tx_level_index, 1);
    EXPECT_EQ(cfg.topology.count(), 4);
  }
}

TEST(MilpEncoding, RunsDryAfterAllLevels) {
  model::Scenario sc;
  MilpEncoding enc(sc);
  const std::vector<double> levels = enc.achievable_power_levels();
  int rounds = 0;
  for (;;) {
    const MilpRound r = enc.run_milp();
    if (r.status != lp::Status::kOptimal) {
      break;
    }
    ++rounds;
    ASSERT_LE(rounds, static_cast<int>(levels.size()));
    enc.add_power_cut_above(r.power_mw);
  }
  // Every achievable power level is visited exactly once.
  EXPECT_EQ(rounds, static_cast<int>(levels.size()));
}

/// A round's answer: status, power bits and sorted candidate keys.
struct RoundKey {
  lp::Status status;
  double power_mw;
  std::vector<std::uint64_t> keys;
  bool operator==(const RoundKey&) const = default;
};

RoundKey key_of(const MilpRound& r) {
  RoundKey k{r.status, r.power_mw, {}};
  for (const auto& cfg : r.candidates) k.keys.push_back(cfg.design_key());
  std::sort(k.keys.begin(), k.keys.end());
  return k;
}

TEST(MilpEncoding, ModelKeepsItsShapeAcrossTheWalk) {
  // A cut is a bound on the power column, not a new row.
  model::Scenario sc;
  MilpEncoding enc(sc);
  const int vars = enc.model().num_variables();
  const int rows = enc.model().num_constraints();
  EXPECT_EQ(vars, 38);
  EXPECT_EQ(rows, 19);
  int rounds = 0;
  for (; rounds < 100; ++rounds) {
    const MilpRound r = enc.run_milp();
    if (r.status != lp::Status::kOptimal) break;
    enc.add_power_cut_above(r.power_mw);
    EXPECT_EQ(enc.model().num_variables(), vars);
    EXPECT_EQ(enc.model().num_constraints(), rows);
  }
  EXPECT_EQ(rounds, 18);
}

TEST(MilpEncoding, ConvexityRowsPinTheCellAtEveryIntegralChoice) {
  // The cells carry no product rows: with (p, rt, z) fixed to one cell,
  // the convexity rows alone must leave all y mass on that cell, so the
  // LP relaxation's P̄ is that cell's cost whether it is minimized or
  // maximized.
  for (const int gamma : {0, 2}) {
    model::Scenario sc;
    const MilpEncoding enc(sc, gamma);
    const lp::Problem& base = enc.model().lp();
    std::map<std::string, int> var;
    std::vector<int> cells;
    for (int v = 0; v < base.num_variables(); ++v) {
      var[base.variable(v).name] = v;
      if (base.variable(v).name.starts_with("y_")) cells.push_back(v);
    }
    int checked = 0;
    for (int k = 0; k < sc.chip.num_tx_levels(); ++k) {
      for (const model::RoutingProtocol rt :
           {model::RoutingProtocol::kStar, model::RoutingProtocol::kMesh}) {
        for (int n = sc.min_nodes; n <= sc.max_nodes; ++n) {
          const std::string cell = std::string("y_p") + std::to_string(k + 1) +
                                   "_" + model::to_string(rt) + "_N" +
                                   std::to_string(n);
          SCOPED_TRACE(::testing::Message() << "gamma " << gamma << " "
                                            << cell);
          ASSERT_TRUE(var.contains(cell));
          lp::Problem fixed = base;
          const auto fix = [&](const std::string& name, bool on) {
            const double v = on ? 1.0 : 0.0;
            fixed.set_bounds(var.at(name), v, v);
          };
          for (int j = 0; j < sc.chip.num_tx_levels(); ++j) {
            fix("p" + std::to_string(j + 1), j == k);
          }
          for (const model::RoutingProtocol r :
               {model::RoutingProtocol::kStar, model::RoutingProtocol::kMesh}) {
            fix(r == model::RoutingProtocol::kStar ? "rt_star" : "rt_mesh",
                r == rt);
          }
          for (int m = sc.min_nodes; m <= sc.max_nodes; ++m) {
            fix("zN" + std::to_string(m), m == n);
          }
          const model::RadioConfig radio = sc.chip.configure(k);
          const double cost =
              sc.app.baseline_mw + model::radio_power_mw(radio, sc.app, rt, n) +
              model::robust_protection_mw(radio, sc.app, rt, n, gamma);
          for (const lp::Objective sense :
               {lp::Objective::kMinimize, lp::Objective::kMaximize}) {
            fixed.set_objective(sense);
            const lp::Solution sol = lp::solve_simplex(fixed);
            ASSERT_EQ(sol.status, lp::Status::kOptimal);
            // The simplex computes P̄ through pivots, so it may miss the
            // cost bits by rounding; run_milp snaps to them within ε/2.
            const double pbar = sol.x[static_cast<std::size_t>(var.at("pbar"))];
            EXPECT_NEAR(pbar, cost, 1e-12 * cost);
            EXPECT_LT(std::fabs(pbar - cost), enc.epsilon_mw() / 2.0);
            for (const int y : cells) {
              const bool self = y == var.at(cell);
              EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], self ? 1.0 : 0.0,
                          1e-12)
                  << base.variable(y).name;
            }
          }
          ++checked;
        }
      }
    }
    EXPECT_EQ(checked, static_cast<int>(cells.size()));
    EXPECT_EQ(checked, 18);
  }
}

TEST(MilpEncoding, CutBelowAnEarlierCutChangesNothing) {
  model::Scenario sc;
  MilpEncoding plain(sc);
  MilpEncoding extra(sc);
  const MilpRound p1 = plain.run_milp();
  const MilpRound e1 = extra.run_milp();
  plain.add_power_cut_above(p1.power_mw);
  extra.add_power_cut_above(e1.power_mw);
  const MilpRound p2 = plain.run_milp();
  const MilpRound e2 = extra.run_milp();
  plain.add_power_cut_above(p2.power_mw);
  extra.add_power_cut_above(e2.power_mw);
  extra.add_power_cut_above(e1.power_mw);  // below the cut just made
  const MilpRound p3 = plain.run_milp();
  const MilpRound e3 = extra.run_milp();
  EXPECT_EQ(key_of(e3), key_of(p3));
  EXPECT_EQ(e3.bnb_nodes, p3.bnb_nodes);
}

TEST(MilpEncoding, WarmWalkMatchesFreshEncodingsRoundByRound) {
  // Every round of one warm walk equals a cold encoding that is given
  // only the cut just before that round.
  for (const int gamma : {0, 2}) {
    model::Scenario sc;
    MilpEncoding warm(sc, gamma);
    double cut = -1.0;  // no cut before the first round
    for (int round = 0;; ++round) {
      SCOPED_TRACE(::testing::Message() << "gamma " << gamma << " round "
                                        << round);
      MilpEncoding fresh(sc, gamma);
      if (round > 0) fresh.add_power_cut_above(cut);
      const MilpRound w = warm.run_milp();
      EXPECT_EQ(key_of(w), key_of(fresh.run_milp()));
      if (w.status != lp::Status::kOptimal) {
        EXPECT_EQ(w.status, lp::Status::kInfeasible);
        EXPECT_EQ(round, static_cast<int>(
                             warm.achievable_power_levels().size()));
        break;
      }
      ASSERT_LT(round, 100);
      cut = w.power_mw;
      warm.add_power_cut_above(cut);
    }
  }
}

TEST(MilpEncoding, EveryWalkRoundSolvesAtTheRoot) {
  // The cut closes every cell cheaper than P̄'s new bound, so the root
  // relaxation's optimum is the next level on an integral cell and no
  // round branches.  Pinned to the paper scenario: two cells of equal
  // cost could legitimately leave a fractional root.
  for (const int gamma : {0, 1, 2}) {
    for (const int max_nodes : {4, 6, 10}) {
      model::Scenario sc;
      sc.max_nodes = max_nodes;
      MilpEncoding enc(sc, gamma);
      const std::size_t levels = enc.achievable_power_levels().size();
      std::size_t rounds = 0;
      for (;; ++rounds) {
        SCOPED_TRACE(::testing::Message() << "gamma " << gamma << " max_nodes "
                                          << max_nodes << " round " << rounds);
        ASSERT_LE(rounds, levels);
        const MilpRound r = enc.run_milp();
        if (r.status != lp::Status::kOptimal) break;
        EXPECT_EQ(r.bnb_nodes, 1);
        enc.add_power_cut_above(r.power_mw);
      }
      EXPECT_EQ(rounds, levels);
    }
  }
}

TEST(MilpEncoding, CutLeavesTheRelaxationTightAtTheNextLevel) {
  // After each cut the LP relaxation of the model (integrality dropped)
  // already has the next achievable level as its optimum.
  for (const int gamma : {0, 2}) {
    model::Scenario sc;
    MilpEncoding enc(sc, gamma);
    const std::vector<double> levels = enc.achievable_power_levels();
    for (std::size_t i = 0; i + 1 < levels.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "gamma " << gamma << " cut " << i);
      enc.add_power_cut_above(levels[i]);
      const lp::Solution relaxed = lp::solve_simplex(enc.model().lp());
      ASSERT_EQ(relaxed.status, lp::Status::kOptimal);
      EXPECT_NEAR(relaxed.objective, levels[i + 1], enc.epsilon_mw() / 2.0);
    }
    enc.add_power_cut_above(levels.back());
    EXPECT_EQ(lp::solve_simplex(enc.model().lp()).status,
              lp::Status::kInfeasible);
  }
}

TEST(MilpEncoding, AchievableLevelsAreSortedDistinct) {
  model::Scenario sc;
  MilpEncoding enc(sc);
  const std::vector<double> levels = enc.achievable_power_levels();
  // Grid is 3 levels x 2 routings x 3 node counts = 18 cells; some cost
  // collisions are possible but not expected with the CC2650 numbers.
  EXPECT_EQ(levels.size(), 18u);
  EXPECT_TRUE(std::is_sorted(levels.begin(), levels.end()));
  EXPECT_GT(enc.epsilon_mw(), 0.0);
  // Epsilon is smaller than every gap.
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(enc.epsilon_mw(), levels[i] - levels[i - 1] + 1e-12);
  }
}

TEST(MilpEncoding, MeshOnlyScenarioSkipsCoordinatorRule) {
  // If the chest is not required, a star cannot be selected unless the
  // coordinator is placed: force a scenario where the chest is excluded
  // and verify every candidate is a mesh.
  model::Scenario sc;
  sc.required_locations = {1, 3, 5};  // no chest
  sc.coverage.clear();
  MilpEncoding enc(sc);
  for (int round = 0; round < 30; ++round) {
    const MilpRound r = enc.run_milp();
    if (r.status != lp::Status::kOptimal) break;
    for (const auto& cfg : r.candidates) {
      if (cfg.routing.protocol == model::RoutingProtocol::kStar) {
        EXPECT_TRUE(cfg.topology.has(sc.coordinator));
      }
    }
    enc.add_power_cut_above(r.power_mw);
  }
}

TEST(MilpEncoding, DependencyConstraintsHonoredByCandidates) {
  model::Scenario sc;
  sc.dependencies.push_back({8, 7, "head needs arm"});
  MilpEncoding enc(sc);
  int rounds = 0;
  for (;;) {
    const MilpRound r = enc.run_milp();
    if (r.status != lp::Status::kOptimal) break;
    ++rounds;
    for (const auto& cfg : r.candidates) {
      if (cfg.topology.has(8)) {
        EXPECT_TRUE(cfg.topology.has(7)) << cfg.label();
      }
    }
    enc.add_power_cut_above(r.power_mw);
  }
  EXPECT_GT(rounds, 0);
}

TEST(MilpEncoding, RejectsDegenerateScenario) {
  model::Scenario sc;
  sc.min_nodes = 1;
  EXPECT_THROW(MilpEncoding{sc}, ModelError);
  sc.min_nodes = 6;
  sc.max_nodes = 4;
  EXPECT_THROW(MilpEncoding{sc}, ModelError);
}

TEST(MilpEncoding, InfeasibleTopologyConstraintsReportInfeasible) {
  model::Scenario sc;
  // Require seven distinct locations but cap the node count at six.
  sc.required_locations = {0, 1, 2, 3, 4, 5, 6};
  const MilpRound r = MilpEncoding{sc}.run_milp();
  EXPECT_EQ(r.status, lp::Status::kInfeasible);
  EXPECT_TRUE(r.candidates.empty());
}

}  // namespace
}  // namespace hi::dse
