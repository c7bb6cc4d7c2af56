// Tier-1 metamorphic properties of the DSE layer on generated scenarios:
// Algorithm 1 must land on the exhaustive optimum and on the PDRmin
// ladder's rung optimum, design for design, raising PDRmin can
// never lower the optimal power, MILP power cuts walk every achievable
// level upward (nominal and Γ-protected, checked against the closed
// form), and thread counts {1, 4} leave every result and
// every (non-scheduling) counter bit-identical.
#include <gtest/gtest.h>

#include "check/properties.hpp"
#include "check/scenario_gen.hpp"
#include "dse/evaluator.hpp"

namespace hi::check {
namespace {

void expect_clean(const std::vector<std::string>& violations,
                  const ScenarioSpec& spec, const char* property) {
  for (const std::string& v : violations) {
    ADD_FAILURE() << property << " on " << spec.summary() << ": " << v;
  }
}

TEST(Metamorphic, Algorithm1MatchesExhaustiveOnGeneratedScenarios) {
  for (const std::uint64_t seed : {4001ULL, 4002ULL, 4003ULL}) {
    const ScenarioSpec spec = make_scenario(seed);
    dse::Evaluator eval(spec.settings);
    expect_clean(check_alg1_matches_exhaustive(spec.scenario, eval, 0.8),
                 spec, "alg1_vs_exhaustive");
  }
}

TEST(Metamorphic, Algorithm1PicksExhaustiveSearchsDesignOnPowerTies) {
  // Two distinct designs tie on power and PDR at the optimum here (N = 2,
  // 8 feasible configs), so only the incumbent order decides which one
  // Algorithm 1 and exhaustive search return.
  const ScenarioSpec spec = make_scenario(55);
  dse::Evaluator eval(spec.settings);
  expect_clean(check_alg1_matches_exhaustive(spec.scenario, eval, 0.8), spec,
               "alg1_vs_exhaustive");
}

TEST(Metamorphic, Algorithm1EqualsTheLadderRungNominal) {
  for (const std::uint64_t seed : {55ULL, 4001ULL, 4002ULL}) {
    const ScenarioSpec spec = make_scenario(seed);
    dse::Evaluator eval(spec.settings);
    for (const dse::TerminationBound bound :
         {dse::TerminationBound::kSoundFloor,
          dse::TerminationBound::kPaperAlpha}) {
      expect_clean(check_alg1_matches_ladder(spec.scenario, eval,
                                             {0.3, 0.6, 0.8, 0.9}, {}, bound),
                   spec, "alg1_vs_ladder");
    }
  }
}

TEST(Metamorphic, Algorithm1EqualsTheLadderRungRobust) {
  for (const std::uint64_t seed : {55ULL, 4003ULL}) {
    const ScenarioSpec spec = make_scenario(seed);
    dse::Evaluator eval(spec.settings);
    expect_clean(check_alg1_matches_ladder(spec.scenario, eval,
                                           {0.3, 0.6, 0.8, 0.9},
                                           dse::RobustnessOptions{2, 3, 0.95},
                                           dse::TerminationBound::kSoundFloor),
                 spec, "alg1_vs_ladder");
  }
}

TEST(Metamorphic, RaisingPdrMinNeverLowersOptimalPower) {
  const ScenarioSpec spec = make_scenario(4101);
  dse::Evaluator eval(spec.settings);
  expect_clean(
      check_pdrmin_monotone(spec.scenario, eval, {0.0, 0.3, 0.6, 0.9, 0.99}),
      spec, "pdrmin_monotone");
}

TEST(Metamorphic, PowerCutsWalkTheLevelGridUpward) {
  for (const std::uint64_t seed : {4201ULL, 4202ULL, 4203ULL, 4204ULL}) {
    const ScenarioSpec spec = make_scenario(seed);
    for (const int gamma : {0, 1, 2}) {
      expect_clean(check_milp_levels(spec.scenario, gamma), spec,
                   "milp_levels");
    }
  }
}

TEST(Metamorphic, ScenarioGenIsDeterministicAndShrinksMonotonically) {
  const ScenarioSpec a = make_scenario(4301);
  const ScenarioSpec b = make_scenario(4301);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.scenario.feasible_configs().size(),
            b.scenario.feasible_configs().size());
  std::size_t prev = a.scenario.feasible_configs().size();
  EXPECT_GT(prev, 0u);
  for (int level = 1; level <= kMaxShrink; ++level) {
    const ScenarioSpec s = make_scenario(4301, level);
    const std::size_t count = s.scenario.feasible_configs().size();
    EXPECT_GT(count, 0u) << "shrink " << level << " emptied the space";
    EXPECT_LE(count, prev) << "shrink " << level << " grew the space";
    prev = count;
  }
}

TEST(Metamorphic, ThreadCountsOneAndFourAreBitIdentical) {
  const ScenarioSpec spec = make_scenario(4401);
  for (const int threads : {1, 4}) {
    expect_clean(check_thread_determinism(spec, threads), spec,
                 "thread_determinism");
  }
}

}  // namespace
}  // namespace hi::check
