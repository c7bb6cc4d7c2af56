// Tier-1 tests of the hi::check exact oracles: rational arithmetic
// (overflow-checked __int128 limbs), the LP vertex-enumeration oracle,
// the MILP integer-box enumerator, and the differential properties they
// power: the simplex and branch and bound against the exact verdicts on
// 40 random seeds each.
#include <gtest/gtest.h>

#include <cmath>

#include "check/lp_oracle.hpp"
#include "check/milp_oracle.hpp"
#include "check/properties.hpp"
#include "check/rational.hpp"
#include "common/rng.hpp"
#include "lp/problem.hpp"
#include "milp/model.hpp"

namespace hi::check {
namespace {

// --- Rational ----------------------------------------------------------

TEST(Rational, NormalizesAndCompares) {
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(-2, -4), Rational(1, 2));
  EXPECT_EQ(Rational(2, -4), Rational(-1, 2));
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_TRUE(Rational().is_zero());
  EXPECT_EQ(Rational(7).to_string(), "7");
  EXPECT_EQ(Rational(-3, 8).to_string(), "-3/8");
}

TEST(Rational, ExactArithmetic) {
  const Rational a(1, 3);
  const Rational b(1, 6);
  EXPECT_EQ(a + b, Rational(1, 2));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 18));
  EXPECT_EQ(a / b, Rational(2));
  // The classic float counterexample is exact here.
  EXPECT_EQ(Rational(1, 10) + Rational(2, 10), Rational(3, 10));
}

TEST(Rational, FromDoubleIsExact) {
  EXPECT_EQ(Rational::from_double(0.5), Rational(1, 2));
  EXPECT_EQ(Rational::from_double(-2.75), Rational(-11, 4));
  EXPECT_EQ(Rational::from_double(3.0), Rational(3));
  // 0.1 is NOT 1/10 in binary; from_double must preserve the true value.
  EXPECT_NE(Rational::from_double(0.1), Rational(1, 10));
  EXPECT_DOUBLE_EQ(Rational::from_double(0.1).to_double(), 0.1);
}

TEST(Rational, OverflowThrowsInsteadOfWrapping) {
  // (2^96)/1 * (2^96)/1 overflows 128-bit limbs.
  Rational big(1);
  for (int i = 0; i < 96; ++i) big *= Rational(2);
  EXPECT_THROW((void)(big * big), OverflowError);
  EXPECT_THROW((void)Rational::from_double(1e300), OverflowError);
}

// --- LP oracle ---------------------------------------------------------

TEST(LpOracle, SolvesKnownVertex) {
  // max x + y  s.t. x + 2y <= 2, bounds [0,1]^2: optimum (1, 1/2) -> 3/2.
  lp::Problem p;
  const int x = p.add_variable(0.0, 1.0, 1.0);
  const int y = p.add_variable(0.0, 1.0, 1.0);
  p.set_objective(lp::Objective::kMaximize);
  p.add_constraint({{x, 1.0}, {y, 2.0}}, lp::Sense::kLessEqual, 2.0);
  const LpOracleResult r = solve_lp_exact(p);
  ASSERT_EQ(r.status, OracleStatus::kOptimal);
  EXPECT_EQ(r.objective, Rational(3, 2));
  ASSERT_EQ(r.x.size(), 2u);
  EXPECT_EQ(r.x[0], Rational(1));
  EXPECT_EQ(r.x[1], Rational(1, 2));
}

TEST(LpOracle, DetectsInfeasibility) {
  lp::Problem p;
  const int x = p.add_variable(0.0, 1.0, 1.0);
  p.add_constraint({{x, 1.0}}, lp::Sense::kGreaterEqual, 2.0);
  EXPECT_EQ(solve_lp_exact(p).status, OracleStatus::kInfeasible);
}

TEST(LpOracle, RejectsUnboundedBoxes) {
  lp::Problem p;
  p.add_variable(0.0, lp::kInf, 1.0);
  EXPECT_THROW((void)solve_lp_exact(p), Error);
}

TEST(LpOracle, EqualityRowsAndFixedVariables) {
  // x fixed to 1/2 by bounds, y constrained by x + y = 1 exactly.
  lp::Problem p;
  const int x = p.add_variable(0.5, 0.5, 0.0);
  const int y = p.add_variable(0.0, 2.0, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::kEqual, 1.0);
  const LpOracleResult r = solve_lp_exact(p);
  ASSERT_EQ(r.status, OracleStatus::kOptimal);
  EXPECT_EQ(r.objective, Rational(1, 2));
  EXPECT_EQ(r.x[y], Rational(1, 2));
}

// --- MILP oracle -------------------------------------------------------

TEST(MilpOracle, KnapsackAllOptima) {
  // max x0 + x1 + x2  s.t. x0 + x1 + x2 <= 2 over binaries: the three
  // 2-of-3 patterns all attain 2.
  milp::Model m;
  for (int v = 0; v < 3; ++v) m.add_binary(1.0);
  m.set_objective(lp::Objective::kMaximize);
  m.add_constraint({{0, 1.0}, {1, 1.0}, {2, 1.0}}, lp::Sense::kLessEqual,
                   2.0);
  const MilpOracleResult r = solve_milp_exact(m);
  ASSERT_EQ(r.status, OracleStatus::kOptimal);
  EXPECT_EQ(r.objective, Rational(2));
  EXPECT_EQ(r.optimal_assignments.size(), 3u);
  EXPECT_EQ(r.boxes_checked, 8u);
}

TEST(MilpOracle, MixedModelUsesExactLpPerBox) {
  // min y  s.t. y >= 1 - b, y in [0, 2], b binary; optimum b=1, y=0.
  milp::Model m;
  const int b = m.add_binary(0.0);
  const int y = m.add_continuous(0.0, 2.0, 1.0);
  m.add_constraint({{y, 1.0}, {b, 1.0}}, lp::Sense::kGreaterEqual, 1.0);
  const MilpOracleResult r = solve_milp_exact(m);
  ASSERT_EQ(r.status, OracleStatus::kOptimal);
  EXPECT_EQ(r.objective, Rational(0));
  ASSERT_EQ(r.optimal_assignments.size(), 1u);
  EXPECT_EQ(r.optimal_assignments[0], std::vector<std::int64_t>{1});
}

TEST(MilpOracle, RefusesOversizedBoxes) {
  milp::Model m;
  m.add_integer(0.0, 100.0, 1.0);
  m.add_integer(0.0, 100.0, 1.0);
  EXPECT_THROW((void)solve_milp_exact(m, /*max_boxes=*/100), Error);
}

// --- differential sweeps ----------------------------------------------

TEST(Differential, SimplexAgreesWithOracleOnRandomLps) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const lp::Problem p = random_bounded_lp(rng);
    for (const std::string& v : check_lp_against_oracle(p)) {
      ADD_FAILURE() << "seed " << seed << ": " << v;
    }
  }
}

TEST(Differential, BranchAndBoundAgreesWithOracleOnRandomMilps) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed ^ 0xABCDULL);
    const milp::Model m = random_small_milp(rng);
    for (const std::string& v : check_milp_against_oracle(m)) {
      ADD_FAILURE() << "seed " << seed << ": " << v;
    }
  }
}

TEST(Differential, WarmBranchAndBoundAgreesWithOracleOnRandomMilps) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed ^ 0x5EEDULL);
    const milp::Model m = random_small_milp(rng);
    for (const std::string& v : check_milp_warm_against_oracle(m, rng)) {
      ADD_FAILURE() << "seed " << seed << ": " << v;
    }
  }
}

}  // namespace
}  // namespace hi::check
