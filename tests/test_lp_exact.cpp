// Exactness properties for the simplex, differentially tested against
// the hi::check rational vertex-enumeration oracle: on random bounded
// LPs in up to 4 variables the solver must agree with the oracle on
// status and objective (the oracle is exact — every vertex is solved in
// rational arithmetic, so there is no reference-implementation noise).
// Warm starts get the same treatment: after random bound tightenings
// (half-boxes, points, empty boxes; free and upper-bounded-only
// variables included) the dual-simplex re-solve must match a cold solve
// and the oracle.  Also pins the Bland anti-cycling fallback: with the
// Dantzig stall
// budget forced to one pivot, a degenerate LP must still reach the exact
// optimum, report its Bland pivots, and surface the work through the
// milp.lp_pivots counter.
#include <gtest/gtest.h>

#include <cmath>

#include "check/lp_oracle.hpp"
#include "check/properties.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "lp/simplex.hpp"
#include "milp/solver.hpp"
#include "obs/metrics.hpp"

namespace hi::lp {
namespace {

struct Case {
  std::uint64_t seed;
};

class RandomLpExact : public ::testing::TestWithParam<Case> {};

TEST_P(RandomLpExact, MatchesRationalOracle) {
  Rng rng(GetParam().seed);
  for (int i = 0; i < 8; ++i) {
    const Problem p = check::random_bounded_lp(rng, /*max_vars=*/4);
    const std::vector<std::string> violations =
        check::check_lp_against_oracle(p);
    for (const std::string& v : violations) {
      ADD_FAILURE() << "seed " << GetParam().seed << " instance " << i << ": "
                    << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpExact,
                         ::testing::Values(Case{201}, Case{202}, Case{203},
                                           Case{204}, Case{205}, Case{206},
                                           Case{207}, Case{208}, Case{209},
                                           Case{210}, Case{211}, Case{212},
                                           Case{213}, Case{214}, Case{215},
                                           Case{216}, Case{217}, Case{218},
                                           Case{219}, Case{220}));

class RandomLpWarmStart : public ::testing::TestWithParam<Case> {};

TEST_P(RandomLpWarmStart, MatchesColdSolveAndOracle) {
  Rng rng = Rng{GetParam().seed}.fork("test.lp.warm");
  for (int i = 0; i < 8; ++i) {
    const Problem p = check::random_bounded_lp(rng, /*max_vars=*/4);
    for (const std::string& v : check::check_warm_start_against_oracle(p, rng)) {
      ADD_FAILURE() << "seed " << GetParam().seed << " instance " << i << ": "
                    << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpWarmStart,
                         ::testing::Values(Case{301}, Case{302}, Case{303},
                                           Case{304}, Case{305}, Case{306},
                                           Case{307}, Case{308}, Case{309},
                                           Case{310}, Case{311}, Case{312},
                                           Case{313}, Case{314}, Case{315},
                                           Case{316}, Case{317}, Case{318},
                                           Case{319}, Case{320}));

TEST(LpWarmStart, BranchChildrenRestartFromTheParentBasis) {
  // max 2x + y  s.t.  x + y <= 1.5,  x, y in [0, 1]:  x = 1, y = 0.5.
  Problem p;
  p.set_objective(Objective::kMaximize);
  const int x = p.add_variable(0.0, 1.0, 2.0);
  const int y = p.add_variable(0.0, 1.0, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 1.5);
  Simplex root(p);
  const Solution parent = root.solve();
  ASSERT_EQ(parent.status, Status::kOptimal);
  EXPECT_NEAR(parent.objective, 2.5, 1e-9);
  EXPECT_NEAR(parent.x[y], 0.5, 1e-9);

  // Both branches on y keep the basis dual feasible; each child is one
  // dual pivot away and lands on its own optimum.
  Simplex down = root;
  down.tighten(y, -kInf, 0.0);
  const Solution d = down.solve();
  ASSERT_EQ(d.status, Status::kOptimal);
  EXPECT_NEAR(d.objective, 2.0, 1e-9);
  EXPECT_NEAR(d.x[x], 1.0, 1e-9);
  EXPECT_NEAR(d.x[y], 0.0, 1e-9);

  Simplex up = root;
  up.tighten(y, 1.0, kInf);
  const Solution u = up.solve();
  ASSERT_EQ(u.status, Status::kOptimal);
  EXPECT_NEAR(u.objective, 2.0, 1e-9);
  EXPECT_NEAR(u.x[x], 0.5, 1e-9);
  EXPECT_NEAR(u.x[y], 1.0, 1e-9);
  EXPECT_LE(u.iterations, 1);

  // A grandchild whose rows cannot hold: x >= 1 and y >= 1 break
  // x + y <= 1.5, and the dual simplex proves it.
  up.tighten(x, 1.0, kInf);
  EXPECT_EQ(up.solve().status, Status::kInfeasible);
  // A crossed box is infeasible without a pivot.
  down.tighten(x, 0.75, 0.5);
  const Solution empty = down.solve();
  EXPECT_EQ(empty.status, Status::kInfeasible);
  EXPECT_EQ(empty.iterations, 0);
  // A failed state cannot be re-solved.
  EXPECT_THROW((void)down.solve(), ModelError);
}

TEST(LpExact, KnownThreeVarOptimum) {
  // max x + 2y + 3z  s.t.  x+y+z <= 2, y+z <= 1.5, bounds [0,1]^3.
  // Optimum: z=1, y=0.5, x=0.5 -> 5/2 + 3 = 4.5.
  Problem p;
  const int x = p.add_variable(0.0, 1.0, 1.0);
  const int y = p.add_variable(0.0, 1.0, 2.0);
  const int z = p.add_variable(0.0, 1.0, 3.0);
  p.set_objective(Objective::kMaximize);
  p.add_constraint({{x, 1.0}, {y, 1.0}, {z, 1.0}}, Sense::kLessEqual, 2.0);
  p.add_constraint({{y, 1.0}, {z, 1.0}}, Sense::kLessEqual, 1.5);

  const check::LpOracleResult oracle = check::solve_lp_exact(p);
  ASSERT_EQ(oracle.status, check::OracleStatus::kOptimal);
  EXPECT_EQ(oracle.objective, check::Rational(9, 2));

  const Solution s = solve_simplex(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 4.5, 1e-9);
}

/// A degenerate LP: the optimal vertex of the scaled assignment-style
/// polytope has many more active constraints than dimensions (every row
/// and every upper bound is tight at the optimum), so several bases
/// describe the same point and a stalled Dantzig rule must hand over to
/// Bland without cycling.
Problem degenerate_lp() {
  Problem p;
  const int a = p.add_variable(0.0, 1.0, 1.0);
  const int b = p.add_variable(0.0, 1.0, 1.0);
  const int c = p.add_variable(0.0, 1.0, 1.0);
  const int d = p.add_variable(0.0, 1.0, 1.0);
  p.set_objective(Objective::kMaximize);
  p.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kLessEqual, 2.0);
  p.add_constraint({{c, 1.0}, {d, 1.0}}, Sense::kLessEqual, 2.0);
  p.add_constraint({{a, 1.0}, {c, 1.0}}, Sense::kLessEqual, 2.0);
  p.add_constraint({{b, 1.0}, {d, 1.0}}, Sense::kLessEqual, 2.0);
  p.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}, {d, 1.0}},
                   Sense::kLessEqual, 4.0);
  return p;
}

TEST(LpExact, BlandFallbackReachesExactOptimum) {
  const Problem p = degenerate_lp();
  const check::LpOracleResult oracle = check::solve_lp_exact(p);
  ASSERT_EQ(oracle.status, check::OracleStatus::kOptimal);
  EXPECT_EQ(oracle.objective, check::Rational(4));

  // Default budget: Dantzig alone finishes, no fallback pivots.
  const Solution dantzig = solve_simplex(p);
  ASSERT_EQ(dantzig.status, Status::kOptimal);
  EXPECT_EQ(dantzig.bland_pivots, 0);
  EXPECT_NEAR(dantzig.objective, 4.0, 1e-9);

  // One-pivot budget: the rest of the path runs under Bland's rule and
  // must reach the same exact optimum (anti-cycling at work).
  SimplexOptions opt;
  opt.dantzig_stall_budget = 1;
  const Solution bland = solve_simplex(p, opt);
  ASSERT_EQ(bland.status, Status::kOptimal);
  EXPECT_GT(bland.bland_pivots, 0);
  EXPECT_LE(bland.bland_pivots, bland.iterations);
  EXPECT_NEAR(bland.objective, 4.0, 1e-9);
}

TEST(LpExact, BlandPivotsSurfaceInMilpCounter) {
  // The same degenerate LP wrapped as a continuous-only MILP: the
  // milp.lp_pivots counter must record exactly the simplex pivots of the
  // single (root) solve, Bland pivots included.
  milp::Model m;
  const Problem p = degenerate_lp();
  for (int v = 0; v < p.num_variables(); ++v) {
    const Variable& var = p.variable(v);
    m.add_continuous(var.lower, var.upper, var.cost);
  }
  m.set_objective(p.objective());
  for (int r = 0; r < p.num_constraints(); ++r) {
    const Constraint& row = p.constraint(r);
    m.add_constraint(row.terms, row.sense, row.rhs);
  }

  obs::MetricsRegistry registry;
  milp::Options opt;
  opt.metrics = &registry;
  opt.lp.dantzig_stall_budget = 1;
  const milp::Solution sol = milp::solve(m, opt);
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.objective, 4.0, 1e-9);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("milp.solves"), 1u);
  EXPECT_EQ(snap.counter("milp.lp_pivots"),
            static_cast<std::uint64_t>(sol.lp_iterations));
  EXPECT_GT(sol.lp_iterations, 0);
}

}  // namespace
}  // namespace hi::lp
