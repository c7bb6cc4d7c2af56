// Robust DSE under channel uncertainty, proven end to end:
//
//   - realization seed derivation (nested, deterministic, nonzero);
//   - the Γ=0 / K=1 collapse (robust machinery == nominal, bit for bit);
//   - robust Algorithm 1 lands exactly on the robust exhaustive optimum
//     (the sound-cut argument, checked differentially on generated
//     scenarios);
//   - monotonicity of the robust optimum in Γ and in K;
//   - bit-identical confidence intervals at any thread count;
//   - per-(design, seed) store round-trip: a warm restart of a robust
//     campaign re-simulates NOTHING, and a SIGKILLed campaign worker
//     resumed from its store holds exactly the records a cold run pays
//     for;
//   - the fast-ILP heuristic's contract: same feasibility verdict as
//     exhaustive search, never better than the optimum, echoed CI.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "check/properties.hpp"
#include "check/scenario_gen.hpp"
#include "common/rng.hpp"
#include "dse/evaluator.hpp"
#include "dse/explorer.hpp"
#include "dse/robustness.hpp"
#include "model/power.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"

namespace {

using namespace hi;

TEST(RobustDse, RealizationSeedsAreNestedDeterministicAndDistinct) {
  const std::uint64_t root = 12345;
  std::set<std::uint64_t> seen{root};
  for (int k = 1; k <= 4; ++k) {
    const std::uint64_t s = dse::realization_channel_seed(root, k);
    EXPECT_NE(s, 0u) << "k=" << k;
    EXPECT_EQ(s, dse::realization_channel_seed(root, k)) << "k=" << k;
    EXPECT_TRUE(seen.insert(s).second) << "collision at k=" << k;
  }
  // Different roots derive different families.
  EXPECT_NE(dse::realization_channel_seed(root, 1),
            dse::realization_channel_seed(root + 1, 1));
}

TEST(RobustDse, EvaluatorRealizationsShareMetricsAndDeriveChannelSeeds) {
  const check::ScenarioSpec spec = check::make_scenario(3, 2);
  dse::Evaluator eval(spec.settings);
  obs::MetricsRegistry metrics;
  eval.set_metrics(&metrics);
  EXPECT_EQ(&eval.realization(0), &eval);
  EXPECT_EQ(eval.realization_count(), 1);
  dse::Evaluator& r1 = eval.realization(1);
  dse::Evaluator& r2 = eval.realization(2);
  EXPECT_EQ(eval.realization_count(), 3);
  EXPECT_EQ(&eval.realization(1), &r1);  // stable across calls
  const std::uint64_t root = spec.settings.sim.channel_seed != 0
                                 ? spec.settings.sim.channel_seed
                                 : spec.settings.sim.seed;
  EXPECT_EQ(r1.settings().sim.channel_seed,
            dse::realization_channel_seed(root, 1));
  EXPECT_EQ(r2.settings().sim.channel_seed,
            dse::realization_channel_seed(root, 2));
  // Only the channel seed differs.
  EXPECT_EQ(r1.settings().sim.seed, spec.settings.sim.seed);
  EXPECT_EQ(r1.settings().runs, spec.settings.runs);
  // Children record into the shared registry.
  const model::NetworkConfig cfg = spec.scenario.feasible_configs().front();
  (void)r1.evaluate(cfg);
  EXPECT_EQ(metrics.snapshot().counter("dse.simulations"), 1u);
  EXPECT_EQ(eval.total_simulations(), 1u);
  EXPECT_EQ(eval.simulations(), 0u);
}

TEST(RobustDse, ZValueMatchesNormalQuantiles) {
  EXPECT_NEAR(dse::robust_z_value(0.95), 1.959964, 1e-5);
  EXPECT_NEAR(dse::robust_z_value(0.99), 2.575829, 1e-5);
  EXPECT_NEAR(dse::robust_z_value(0.6827), 1.0, 2e-3);
}

TEST(RobustDse, ProtectionClosedFormIsZeroAtGammaZeroAndMonotone) {
  const model::Scenario sc;
  const std::vector<model::NetworkConfig> configs = sc.feasible_configs();
  ASSERT_FALSE(configs.empty());
  const model::NetworkConfig& cfg = configs.front();
  EXPECT_EQ(model::robust_protection_mw(cfg, 0), 0.0);
  double prev = 0.0;
  for (int gamma = 1; gamma <= 8; ++gamma) {
    const double p = model::robust_protection_mw(cfg, gamma);
    EXPECT_GE(p, prev) << "gamma=" << gamma;
    prev = p;
  }
  EXPECT_GT(prev, 0.0);
}

TEST(RobustDse, GammaZeroSingleRealizationCollapsesBitIdentically) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const check::ScenarioSpec spec = check::make_scenario(seed, 2);
    const std::vector<std::string> violations =
        check::check_robust_collapse(spec);
    EXPECT_TRUE(violations.empty())
        << "seed " << seed << ": " << violations.front();
  }
}

TEST(RobustDse, RobustAlg1MatchesRobustExhaustiveOptimum) {
  for (const std::uint64_t seed : {2u, 7u}) {
    const check::ScenarioSpec spec = check::make_scenario(seed, 2);
    dse::Evaluator eval(spec.settings);
    const dse::RobustnessOptions robust{2, 2, 0.95};
    const std::vector<std::string> violations =
        check::check_robust_alg1_matches_exhaustive(spec.scenario, eval, 0.8,
                                                    robust);
    EXPECT_TRUE(violations.empty())
        << "seed " << seed << ": " << violations.front();
  }
}

TEST(RobustDse, OptimumMonotoneInGammaAndRealizations) {
  const check::ScenarioSpec spec = check::make_scenario(5, 2);
  const std::vector<std::string> violations =
      check::check_robust_monotone(spec, {0, 1, 2, 4}, {1, 2, 3});
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(RobustDse, ConfidenceIntervalBitIdenticalAtAnyThreadCount) {
  const check::ScenarioSpec spec = check::make_scenario(4, 2);
  const dse::RobustnessOptions robust{1, 2, 0.95};
  for (const int threads : {2, 4}) {
    const std::vector<std::string> violations =
        check::check_robust_thread_determinism(spec, threads, robust);
    EXPECT_TRUE(violations.empty())
        << threads << " threads: " << violations.front();
  }
}

TEST(RobustDse, RealizationCountersAndResultEcho) {
  const check::ScenarioSpec spec = check::make_scenario(6, 2);
  dse::Evaluator eval(spec.settings);
  dse::ExplorationOptions opt;
  opt.pdr_min = 0.7;
  opt.robust = dse::RobustnessOptions{1, 2, 0.95};
  const dse::ExplorationResult res =
      dse::run_exhaustive(spec.scenario, eval, opt);
  EXPECT_EQ(res.realizations, 2);
  EXPECT_EQ(res.metrics.counter("dse.realizations"),
            2 * res.history.size());
  if (res.feasible) {
    EXPECT_LE(res.best_pdr_lo, res.best_pdr_hi);
    EXPECT_EQ(res.best_protection_mw,
              model::robust_protection_mw(res.best, 1));
  }
  // Every history record carries its CI.
  for (const dse::CandidateRecord& rec : res.history) {
    EXPECT_LE(rec.pdr_lo, rec.pdr_hi);
    EXPECT_GE(rec.pdr_lo, 0.0);
    EXPECT_LE(rec.pdr_hi, 1.0);
  }
}

TEST(RobustDse, OptionsFingerprintChangesOnlyWhenRobustActive) {
  const dse::ExplorationOptions base;
  dse::ExplorationOptions inactive = base;
  inactive.robust.confidence = 0.5;  // still gamma 0, K 1 — inactive
  dse::ExplorationOptions with_gamma = base;
  with_gamma.robust.gamma = 1;
  dse::ExplorationOptions with_k = base;
  with_k.robust.realizations = 2;
  const auto fp = [](const dse::ExplorationOptions& o) {
    return store::options_fingerprint(o, dse::ExplorerKind::kAlgorithm1);
  };
  EXPECT_EQ(fp(base), fp(inactive));
  EXPECT_NE(fp(base), fp(with_gamma));
  EXPECT_NE(fp(base), fp(with_k));
  EXPECT_NE(fp(with_gamma), fp(with_k));
}

TEST(RobustDse, StoreRoundTripsPerRealizationRecordsWithZeroResimulation) {
  const check::ScenarioSpec spec = check::make_scenario(11, 2);
  const std::string path = "robust_roundtrip.store";
  std::remove(path.c_str());
  const dse::RobustnessOptions robust{1, 2, 0.95};
  dse::ExplorationOptions opt;
  opt.pdr_min = 0.7;
  opt.robust = robust;
  const std::size_t n_configs = spec.scenario.feasible_configs().size();
  ASSERT_GT(n_configs, 0u);

  dse::ExplorationResult first;
  {
    store::EvalStore st(path, store::StoreOptions{});
    dse::Evaluator eval(spec.settings);
    const store::WarmStartStats warm =
        store::warm_start(eval, st, robust.realizations);
    EXPECT_EQ(warm.realizations, 2);
    EXPECT_EQ(warm.preloaded, 0u);
    first = dse::run_exhaustive(spec.scenario, eval, opt);
    EXPECT_EQ(eval.total_simulations(), 2 * n_configs);
    // One record per (design, realization seed).
    EXPECT_EQ(st.eval_count(), 2 * n_configs);
  }
  {
    store::EvalStore st(path, store::StoreOptions{});
    dse::Evaluator eval(spec.settings);
    const store::WarmStartStats warm =
        store::warm_start(eval, st, robust.realizations);
    EXPECT_EQ(warm.preloaded, 2 * n_configs);
    const dse::ExplorationResult second =
        dse::run_exhaustive(spec.scenario, eval, opt);
    EXPECT_EQ(eval.total_simulations(), 0u) << "warm restart re-simulated";
    EXPECT_EQ(second.feasible, first.feasible);
    EXPECT_EQ(second.best_power_mw, first.best_power_mw);
    EXPECT_EQ(second.best_pdr, first.best_pdr);
    EXPECT_EQ(second.best_pdr_lo, first.best_pdr_lo);
    EXPECT_EQ(second.best_pdr_hi, first.best_pdr_hi);
    EXPECT_EQ(second.best_protection_mw, first.best_protection_mw);
    if (first.feasible) {
      EXPECT_EQ(second.best.design_key(), first.best.design_key());
    }
  }
  // A K=3 sweep reuses both existing realization rows (nested seeds).
  {
    store::EvalStore st(path, store::StoreOptions{});
    dse::Evaluator eval(spec.settings);
    const store::WarmStartStats warm = store::warm_start(eval, st, 3);
    EXPECT_EQ(warm.preloaded, 2 * n_configs);
    dse::ExplorationOptions opt3 = opt;
    opt3.robust.realizations = 3;
    (void)dse::run_exhaustive(spec.scenario, eval, opt3);
    EXPECT_EQ(eval.total_simulations(), n_configs)
        << "only the new realization should simulate";
  }
  std::remove(path.c_str());
}

TEST(RobustDse, FleetKillResumeHoldsExactlyTheColdRunsRecords) {
  const std::string store_path = "robust_kill.store";
  const std::string cold_store = "robust_kill_cold.store";
  std::remove(store_path.c_str());
  std::remove(cold_store.c_str());

  campaign::PlanSpec spec;
  spec.gen_seeds = {5, 6};
  spec.pdr_grid = {0.5, 0.7};
  spec.robust.gamma = 1;
  spec.robust.realizations = 2;
  std::string err;
  const auto plan = campaign::CampaignPlan::build(spec, &err);
  ASSERT_TRUE(plan) << err;
  const std::size_t n_cells = plan->cell_count();
  ASSERT_GE(n_cells, 2u);

  campaign::RunConfig cold_cfg;
  cold_cfg.store_path = cold_store;
  const campaign::CampaignReport cold =
      campaign::run_single(*plan, cold_cfg, nullptr);
  const std::uint64_t cold_evals = cold.stored_evals;
  ASSERT_GT(cold_evals, 0u);
  // Per-(design, seed) records: every design is simulated under both
  // realizations, so the store count is even.
  EXPECT_EQ(cold_evals % 2, 0u);

  // A forked worker runs the campaign serially; the inter-cell delay
  // holds it after its first checkpoint so the SIGKILL lands mid-grid.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    campaign::RunConfig cfg;
    cfg.store_path = store_path;
    cfg.cell_delay_ms = 10000;
    (void)campaign::run_single(*plan, cfg, nullptr);
    _exit(0);
  }
  const auto cells_now = [&]() -> std::uint64_t {
    try {
      store::StoreOptions ro;
      ro.read_only = true;
      return store::EvalStore(store_path, ro).cell_count();
    } catch (const Error&) {
      return 0;  // the worker has not created the store yet
    }
  };
  std::uint64_t checkpointed = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    checkpointed = cells_now();
    if (checkpointed >= 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_GE(checkpointed, 1u) << "worker never checkpointed a cell";
  ASSERT_LT(checkpointed, n_cells) << "worker finished before the kill";

  campaign::RunConfig cfg;
  cfg.store_path = store_path;
  cfg.resume = true;
  const campaign::CampaignReport resumed =
      campaign::run_single(*plan, cfg, nullptr);
  EXPECT_EQ(resumed.stored_cells, n_cells);
  store::StoreOptions ro;
  ro.read_only = true;
  const store::EvalStore st(store_path, ro);
  EXPECT_EQ(st.eval_count(), cold_evals)
      << "kill/resume lost or duplicated per-realization records";
  EXPECT_TRUE(store::EvalStore::audit(store_path).clean());

  std::remove(store_path.c_str());
  std::remove(cold_store.c_str());
}

TEST(RobustDse, FastIlpMatchesFeasibilityAndNeverBeatsTheOptimum) {
  for (const std::uint64_t seed : {3u, 9u}) {
    const check::ScenarioSpec spec = check::make_scenario(seed, 2);
    dse::Evaluator eval(spec.settings);
    dse::ExplorationOptions opt;
    opt.pdr_min = 0.8;
    const dse::ExplorationResult ex =
        dse::run_exhaustive(spec.scenario, eval, opt);
    eval.reset_counters();
    const dse::ExplorationResult fi =
        dse::run_fast_ilp(spec.scenario, eval, opt);
    EXPECT_EQ(fi.feasible, ex.feasible) << "seed " << seed;
    if (ex.feasible) {
      EXPECT_GE(fi.best_power_mw, ex.best_power_mw - 1e-12) << "seed " << seed;
      EXPECT_GE(fi.best_pdr, opt.pdr_min) << "seed " << seed;
    }
    EXPECT_LE(fi.simulations, ex.simulations) << "seed " << seed;
  }
}

TEST(RobustDse, InvalidOptionsAreRejectedByEveryExplorer) {
  // Validated on every run, not only when active(): Γ < 0 or K < 1
  // must not silently run as a nominal search.
  const check::ScenarioSpec spec = check::make_scenario(4, 2);
  dse::Evaluator eval(spec.settings);
  for (const dse::RobustnessOptions& bad :
       {dse::RobustnessOptions{-1, 1, 0.95}, dse::RobustnessOptions{0, 0, 0.95},
        dse::RobustnessOptions{0, 1, 1.5}}) {
    dse::ExplorationOptions opt;
    opt.robust = bad;
    for (const dse::ExplorerKind kind : dse::kAllExplorers) {
      EXPECT_THROW((void)dse::explore(kind, spec.scenario, eval, opt),
                   ModelError)
          << dse::to_string(kind) << " gamma " << bad.gamma << " K "
          << bad.realizations << " confidence " << bad.confidence;
    }
  }
  // The paper-alpha bound has no robust reading.
  dse::ExplorationOptions alpha;
  alpha.bound = dse::TerminationBound::kPaperAlpha;
  alpha.robust.gamma = 1;
  EXPECT_THROW((void)dse::run_algorithm1(spec.scenario, eval, alpha),
               ModelError);
  EXPECT_EQ(eval.total_simulations(), 0u);
}

TEST(RobustDse, FastIlpRobustModeEchoesProtectionAndCi) {
  const check::ScenarioSpec spec = check::make_scenario(4, 2);
  dse::Evaluator eval(spec.settings);
  dse::ExplorationOptions opt;
  opt.pdr_min = 0.5;
  opt.robust = dse::RobustnessOptions{2, 2, 0.95};
  const dse::ExplorationResult res =
      dse::run_fast_ilp(spec.scenario, eval, opt);
  EXPECT_EQ(res.realizations, 2);
  if (res.feasible) {
    EXPECT_EQ(res.best_protection_mw,
              model::robust_protection_mw(res.best, 2));
    EXPECT_GT(res.best_protection_mw, 0.0);
    EXPECT_LE(res.best_pdr_lo, res.best_pdr_hi);
  }
  if (res.iterations >= 2) {
    EXPECT_GE(res.metrics.counter("walk.cuts_added"), 1u);
  }
}

}  // namespace
