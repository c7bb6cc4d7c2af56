// Tier-1 guarantee of the hi::exec batch engine: explorer results are
// bit-identical to serial at any thread count — same best configuration,
// same PDR/power/NLT to the last bit, same simulation and cache-hit
// counters, and the same candidate history in the same order.  The
// mechanism under test: seeds derive from design_key(), all design
// points share one channel-realization root (common random numbers),
// and BatchEvaluator commits results in request order.  The default
// channel factory's shared fade tapes must be just as invisible: results
// equal those of a factory that builds every channel from its seed.
#include <gtest/gtest.h>

#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "channel/channel.hpp"
#include "check/properties.hpp"
#include "check/scenario_gen.hpp"
#include "dse/explorer.hpp"
#include "exec/batch_evaluator.hpp"
#include "store/serialize.hpp"

namespace hi::dse {
namespace {

EvaluatorSettings fast_settings(int threads) {
  EvaluatorSettings s;
  s.sim.duration_s = 4.0;
  s.sim.seed = 2017;
  s.runs = 2;
  s.threads = threads;
  return s;
}

model::Scenario small_scenario() {
  model::Scenario sc;
  sc.max_nodes = 4;  // shrink the sweep so four full runs stay fast
  return sc;
}

/// Everything determinism must preserve, captured from one run.
struct RunFingerprint {
  ExplorationResult result;
  std::uint64_t simulations = 0;
  std::uint64_t cache_hits = 0;
};

void expect_identical(const RunFingerprint& serial, const RunFingerprint& par,
                      int threads) {
  SCOPED_TRACE(::testing::Message() << "threads=" << threads);
  const ExplorationResult& a = serial.result;
  const ExplorationResult& b = par.result;
  ASSERT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.best.design_key(), b.best.design_key());
  // EXPECT_EQ on doubles is exact comparison: bit-identical or bust.
  EXPECT_EQ(a.best_power_mw, b.best_power_mw);
  EXPECT_EQ(a.best_pdr, b.best_pdr);
  EXPECT_EQ(a.best_nlt_s, b.best_nlt_s);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.simulations, b.simulations);
  EXPECT_EQ(serial.simulations, par.simulations);
  EXPECT_EQ(serial.cache_hits, par.cache_hits);
  // The run snapshots mirror the evaluator counters exactly — the
  // atomic metric sums are thread-count-invariant too.
  EXPECT_EQ(a.metrics.counter("dse.simulations"), a.simulations);
  EXPECT_EQ(b.metrics.counter("dse.simulations"), b.simulations);
  EXPECT_EQ(a.metrics.counter("dse.cache_hits"),
            b.metrics.counter("dse.cache_hits"));
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].cfg.design_key(), b.history[i].cfg.design_key());
    EXPECT_EQ(a.history[i].sim_pdr, b.history[i].sim_pdr);
    EXPECT_EQ(a.history[i].sim_power_mw, b.history[i].sim_power_mw);
    EXPECT_EQ(a.history[i].sim_nlt_s, b.history[i].sim_nlt_s);
  }
}

RunFingerprint exhaustive_at(int threads) {
  Evaluator eval(fast_settings(threads));
  RunFingerprint fp;
  ExplorationOptions opt;
  opt.pdr_min = 0.9;
  fp.result = run_exhaustive(small_scenario(), eval, opt);
  fp.simulations = eval.simulations();
  fp.cache_hits = eval.cache_hits();
  return fp;
}

RunFingerprint algorithm1_at(int threads) {
  Evaluator eval(fast_settings(/*threads=*/0));
  ExplorationOptions opt;
  opt.pdr_min = 0.9;
  opt.threads = threads;  // explicit knob overrides the settings
  RunFingerprint fp;
  fp.result = run_algorithm1(small_scenario(), eval, opt);
  fp.simulations = eval.simulations();
  fp.cache_hits = eval.cache_hits();
  return fp;
}

TEST(ExecDeterminism, ExhaustiveSearchIsThreadCountInvariant) {
  const RunFingerprint serial = exhaustive_at(0);
  ASSERT_TRUE(serial.result.feasible);
  EXPECT_GT(serial.result.simulations, 0u);
  for (const int threads : {1, 2, 8}) {
    expect_identical(serial, exhaustive_at(threads), threads);
  }
}

TEST(ExecDeterminism, Algorithm1IsThreadCountInvariant) {
  const RunFingerprint serial = algorithm1_at(0);
  ASSERT_TRUE(serial.result.feasible);
  EXPECT_GT(serial.result.simulations, 0u);
  for (const int threads : {1, 2, 8}) {
    expect_identical(serial, algorithm1_at(threads), threads);
  }
}

TEST(ExecDeterminism, GeneratedScenariosAreThreadCountInvariant) {
  // ScenarioGen instances (random chips, coverage groups, placements)
  // through the full hi::check determinism property: bit-identical
  // ExplorationResult and equal counter snapshots at 1 and 4 workers
  // (exec.* scheduling counters excluded by the property itself).
  for (const std::uint64_t seed : {901ULL, 902ULL}) {
    const check::ScenarioSpec spec = check::make_scenario(seed);
    for (const int threads : {1, 4}) {
      for (const std::string& v :
           check::check_thread_determinism(spec, threads)) {
        ADD_FAILURE() << spec.summary() << " at " << threads
                      << " threads: " << v;
      }
    }
  }
}

TEST(ExecDeterminism, Algorithm1InheritsEvaluatorThreads) {
  // threads = -1 (default) takes EvaluatorSettings::threads; results are
  // still identical to the fully serial run.
  const RunFingerprint serial = algorithm1_at(0);
  Evaluator eval(fast_settings(/*threads=*/4));
  ExplorationOptions opt;
  opt.pdr_min = 0.9;
  ASSERT_EQ(opt.threads, -1);
  RunFingerprint inherited;
  inherited.result = run_algorithm1(small_scenario(), eval, opt);
  inherited.simulations = eval.simulations();
  inherited.cache_hits = eval.cache_hits();
  expect_identical(serial, inherited, 4);
}

/// A channel factory without the default factory's tape cache: every
/// channel draws its fades from its own seed's Rng.
net::ChannelFactory uncached_factory() {
  return [](std::uint64_t seed) {
    return channel::make_default_body_channel(seed);
  };
}

/// Evaluations of 20 designs spread over the paper scenario's space,
/// as store byte images, plus the run's counter snapshot.
struct CohortRun {
  std::vector<std::string> images;
  obs::Snapshot counters;
};

CohortRun evaluate_cohort(net::ChannelFactory channel, int threads) {
  const std::vector<model::NetworkConfig> space =
      model::Scenario{}.feasible_configs();
  std::vector<model::NetworkConfig> cohort;
  for (std::size_t i = 0; i < space.size() && cohort.size() < 20;
       i += space.size() / 20) {
    cohort.push_back(space[i]);
  }
  obs::MetricsRegistry reg;
  EvaluatorSettings s = fast_settings(0);
  s.channel = std::move(channel);
  s.metrics = &reg;
  Evaluator eval(s);
  exec::BatchEvaluator batch(eval, threads);
  CohortRun run;
  for (const Evaluation* ev : batch.evaluate(cohort)) {
    store::ByteWriter w;
    store::write_evaluation(w, *ev);
    run.images.push_back(w.bytes());
  }
  run.counters = reg.snapshot();
  return run;
}

TEST(ExecDeterminism, SharedFadeTapesAreInvisibleToResults) {
  // A fresh default factory per run: at 2 and 4 workers the first
  // designs' workers ask for a new seed's channels at the same moment,
  // and one of them builds the seed's tapes.
  const CohortRun plain = evaluate_cohort(uncached_factory(), 0);
  ASSERT_EQ(plain.images.size(), 20u);
  EXPECT_GT(plain.counters.counter("des.events"), 0u);
  for (const int threads : {0, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const CohortRun shared =
        evaluate_cohort(net::default_channel_factory(), threads);
    ASSERT_EQ(shared.images.size(), plain.images.size());
    for (std::size_t i = 0; i < plain.images.size(); ++i) {
      EXPECT_EQ(shared.images[i], plain.images[i]) << "design " << i;
    }
    for (const std::string& v :
         check::diff_counters(plain.counters, shared.counters, {"exec."})) {
      ADD_FAILURE() << v;
    }
  }
}

TEST(ExecDeterminism, ConcurrentFirstUseOfASeedSharesOneTapeSet) {
  // Four workers ask one fresh factory for the same new seed at once:
  // one request builds the seed's tapes and the others read them.  Every
  // channel must replay the uncached channel's trajectory.
  const net::ChannelFactory shared = net::default_channel_factory();
  constexpr std::uint64_t kSeed = 0x5EEDULL;
  constexpr int kWorkers = 4;
  std::vector<double> want;
  {
    const auto ch = uncached_factory()(kSeed);
    for (double t = 0.0; t < 40.0; t += 0.02) {
      want.push_back(ch->path_loss_db(0, 3, t));
    }
  }
  std::vector<double> got[kWorkers];
  std::latch start(kWorkers);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      start.arrive_and_wait();
      const auto ch = shared(kSeed);
      for (double t = 0.0; t < 40.0; t += 0.02) {
        got[w].push_back(ch->path_loss_db(3, 0, t));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int w = 0; w < kWorkers; ++w) EXPECT_EQ(got[w], want) << "worker " << w;
  const std::optional<net::TapeCacheStats> stats =
      net::tape_cache_stats(shared);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->seeds, 1u);
  EXPECT_EQ(stats->builds, 1u);
  EXPECT_EQ(stats->hits, static_cast<std::uint64_t>(kWorkers - 1));
  EXPECT_EQ(stats->untaped, 0u);
}

/// The first 200 samples of link (1, 5) of `ch`.
std::vector<double> trajectory(channel::ChannelModel& ch) {
  std::vector<double> out;
  for (int k = 0; k < 200; ++k) out.push_back(ch.path_loss_db(1, 5, 0.05 * k));
  return out;
}

TEST(ExecDeterminism, TapeCacheHoldsBusySeedsAndReplacesIdleOnes) {
  const net::ChannelFactory factory = net::default_channel_factory();
  const net::ChannelFactory copy = factory;  // copies share one cache
  EXPECT_FALSE(net::tape_cache_stats(uncached_factory()).has_value());
  const auto expect_stats = [&](std::size_t seeds, std::uint64_t builds,
                                std::uint64_t hits, std::uint64_t untaped) {
    const std::optional<net::TapeCacheStats> got =
        net::tape_cache_stats(copy);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->seeds, seeds);
    EXPECT_EQ(got->builds, builds);
    EXPECT_EQ(got->hits, hits);
    EXPECT_EQ(got->untaped, untaped);
  };
  const auto request = [&](std::uint64_t seed) {
    const auto ch = factory(seed);
    const auto plain = uncached_factory()(seed);
    EXPECT_EQ(trajectory(*ch), trajectory(*plain)) << "seed " << seed;
  };
  // A run cycling through 20 seeds: the first 16 get tapes on their
  // first request and keep them, the other 4 draw from their Rng.
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) request(seed);
  }
  expect_stats(16, 16, 16, 8);
  // The caller moves on to seed 100.  Seed 0, the least recently used,
  // was last asked for by request 21, so seed 100 draws from its Rng
  // through request 85 (45 requests), takes seed 0's slot at request 86
  // and reads its tapes from then on (14 hits).
  for (int k = 0; k < 60; ++k) request(100);
  expect_stats(16, 17, 16 + 14, 8 + 45);
  // Seed 0 was evicted: asking for it again rebuilds its tapes in the
  // slot of seed 1, now the least recently used and long idle.
  request(0);
  expect_stats(16, 18, 30, 53);
}

}  // namespace
}  // namespace hi::dse
