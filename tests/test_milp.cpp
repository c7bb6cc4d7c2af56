// Unit and property tests for the branch-and-bound MILP solver
// (milp/solver.hpp).
#include "milp/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace hi::milp {
namespace {

TEST(Milp, BinaryCover) {
  Model m;
  const int a = m.add_binary(1.0, "a");
  const int b = m.add_binary(1.0, "b");
  m.add_constraint({{a, 1.0}, {b, 1.0}}, lp::Sense::kGreaterEqual, 1.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, lp::Status::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-9);
  EXPECT_NEAR(s.x[a] + s.x[b], 1.0, 1e-6);
}

TEST(Milp, KnapsackKnownOptimum) {
  // max 10a + 13b + 7c  s.t.  5a + 7b + 4c <= 9  -> {a,c} = 17.
  Model m;
  m.set_objective(lp::Objective::kMaximize);
  const int a = m.add_binary(10.0);
  const int b = m.add_binary(13.0);
  const int c = m.add_binary(7.0);
  m.add_constraint({{a, 5.0}, {b, 7.0}, {c, 4.0}}, lp::Sense::kLessEqual, 9.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, lp::Status::kOptimal);
  EXPECT_NEAR(s.objective, 17.0, 1e-9);
  EXPECT_NEAR(s.x[a], 1.0, 1e-6);
  EXPECT_NEAR(s.x[b], 0.0, 1e-6);
  EXPECT_NEAR(s.x[c], 1.0, 1e-6);
}

TEST(Milp, GeneralIntegerVariable) {
  // min x  s.t.  3x >= 10, x integer  ->  x = 4.
  Model m;
  const int x = m.add_integer(0.0, 100.0, 1.0);
  m.add_constraint({{x, 3.0}}, lp::Sense::kGreaterEqual, 10.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, lp::Status::kOptimal);
  EXPECT_NEAR(s.x[x], 4.0, 1e-6);
}

TEST(Milp, MixedIntegerContinuous) {
  // max 2x + y with x binary, y <= 1.5 continuous, x + y <= 2.
  Model m;
  m.set_objective(lp::Objective::kMaximize);
  const int x = m.add_binary(2.0);
  const int y = m.add_continuous(0.0, 1.5, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::kLessEqual, 2.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, lp::Status::kOptimal);
  EXPECT_NEAR(s.x[x], 1.0, 1e-6);
  EXPECT_NEAR(s.x[y], 1.0, 1e-6);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
}

TEST(Milp, InfeasibleIntegerBox) {
  // 0.4 <= x <= 0.6 has no integer point.
  Model m;
  const int x = m.add_integer(0.0, 1.0, 1.0);
  m.add_constraint({{x, 1.0}}, lp::Sense::kGreaterEqual, 0.4);
  m.add_constraint({{x, 1.0}}, lp::Sense::kLessEqual, 0.6);
  EXPECT_EQ(solve(m).status, lp::Status::kInfeasible);
}

TEST(Milp, NoGoodCutExcludesAssignment) {
  Model m;
  const int a = m.add_binary(-1.0);
  const int b = m.add_binary(-2.0);
  Solution s = solve(m);
  ASSERT_EQ(s.status, lp::Status::kOptimal);
  EXPECT_NEAR(s.objective, -3.0, 1e-9);  // (1,1)
  // The no-good cut (1 - a) + (1 - b) >= 1 as a row added after a solve.
  m.add_constraint({{a, -1.0}, {b, -1.0}}, lp::Sense::kGreaterEqual, -1.0);
  s = solve(m);
  ASSERT_EQ(s.status, lp::Status::kOptimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-9);  // next best: (0,1)
}

TEST(MilpBranchPriority, DoesNotChangeTheOptimum) {
  Rng rng(77);
  Model m;
  std::vector<lp::Term> row;
  for (int j = 0; j < 10; ++j) {
    m.add_binary(rng.uniform(-3.0, 3.0));
    row.push_back({j, rng.uniform(0.5, 2.0)});
  }
  m.add_constraint(row, lp::Sense::kLessEqual, 6.0);
  const Solution plain = solve(m);
  Options opt;
  opt.branch_priority = {9, 8, 7, 6, 5};
  const Solution prio = solve(m, opt);
  ASSERT_EQ(plain.status, lp::Status::kOptimal);
  ASSERT_EQ(prio.status, lp::Status::kOptimal);
  EXPECT_NEAR(plain.objective, prio.objective, 1e-9);
}

// ---- Property suite: random binary programs vs brute force ---------------

struct RandomMilpCase {
  std::uint64_t seed;
};

class MilpRandom : public ::testing::TestWithParam<RandomMilpCase> {};

TEST_P(MilpRandom, MatchesBruteForceEnumeration) {
  Rng rng(GetParam().seed);
  const int n = 3 + static_cast<int>(rng.uniform_index(6));  // 3..8 binaries
  const int m_rows = 1 + static_cast<int>(rng.uniform_index(4));
  Model m;
  std::vector<double> cost(n);
  for (int j = 0; j < n; ++j) {
    cost[j] = std::round(rng.uniform(-5.0, 5.0));
    m.add_binary(cost[j]);
  }
  std::vector<std::vector<double>> rows(m_rows, std::vector<double>(n));
  std::vector<double> rhs(m_rows);
  std::vector<lp::Sense> sense(m_rows);
  for (int r = 0; r < m_rows; ++r) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j) {
      rows[r][j] = std::round(rng.uniform(-3.0, 3.0));
      terms.push_back({j, rows[r][j]});
    }
    rhs[r] = std::round(rng.uniform(-2.0, 4.0));
    sense[r] = rng.bernoulli(0.5) ? lp::Sense::kLessEqual
                                  : lp::Sense::kGreaterEqual;
    m.add_constraint(terms, sense[r], rhs[r]);
  }

  // Brute force over all 2^n assignments.
  double best = 0.0;
  int feasible_count = 0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    bool ok = true;
    for (int r = 0; r < m_rows && ok; ++r) {
      double lhs = 0.0;
      for (int j = 0; j < n; ++j) {
        if (mask & (1 << j)) lhs += rows[r][j];
      }
      ok = sense[r] == lp::Sense::kLessEqual ? lhs <= rhs[r] + 1e-9
                                             : lhs >= rhs[r] - 1e-9;
    }
    if (!ok) continue;
    double obj = 0.0;
    for (int j = 0; j < n; ++j) {
      if (mask & (1 << j)) obj += cost[j];
    }
    if (feasible_count == 0 || obj < best) {
      best = obj;
    }
    ++feasible_count;
  }

  const Solution s = solve(m);
  if (feasible_count == 0) {
    EXPECT_EQ(s.status, lp::Status::kInfeasible);
    return;
  }
  ASSERT_EQ(s.status, lp::Status::kOptimal);
  EXPECT_NEAR(s.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MilpRandom,
    ::testing::Values(RandomMilpCase{101}, RandomMilpCase{102},
                      RandomMilpCase{103}, RandomMilpCase{104},
                      RandomMilpCase{105}, RandomMilpCase{106},
                      RandomMilpCase{107}, RandomMilpCase{108},
                      RandomMilpCase{109}, RandomMilpCase{110},
                      RandomMilpCase{111}, RandomMilpCase{112},
                      RandomMilpCase{113}, RandomMilpCase{114},
                      RandomMilpCase{115}, RandomMilpCase{116}));

}  // namespace
}  // namespace hi::milp
