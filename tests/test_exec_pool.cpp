// Unit tests for the hi::exec execution substrate: ThreadPool semantics
// (completion-order independence, exception propagation, graceful
// shutdown with queued work) and BatchEvaluator's in-flight dedup.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "exec/batch_evaluator.hpp"
#include "exec/thread_pool.hpp"
#include "model/design_space.hpp"

namespace hi::exec {
namespace {

TEST(ThreadPool, RejectsANonPositiveWorkerCount) {
  EXPECT_THROW(ThreadPool{0}, ModelError);
  EXPECT_THROW(ThreadPool{-3}, ModelError);
}

TEST(ThreadPool, ReportsItsSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
}

TEST(ThreadPool, ResultsAreIndependentOfCompletionOrder) {
  // Early-submitted tasks sleep longest, so later tasks routinely finish
  // first; each future must still carry its own task's result.
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([i] {
      std::this_thread::sleep_for(std::chrono::microseconds((kTasks - i) * 20));
      return i * i;
    }));
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, PropagatesTaskExceptionsToTheCaller) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 8; }).get(), 8);
}

TEST(ThreadPool, ShutdownDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      (void)pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // graceful destructor: every already-queued task still runs
  EXPECT_EQ(ran.load(), 100);
}

// ---------------------------------------------------------------------------
// BatchEvaluator

/// Settings whose channel factory counts invocations: with runs == 1,
/// one factory call == one simulation actually executed (as opposed to
/// the evaluator's simulations() counter, which counts *requests*).
dse::EvaluatorSettings counting_settings(
    std::shared_ptr<std::atomic<int>> channels) {
  dse::EvaluatorSettings s;
  s.sim.duration_s = 5.0;
  s.sim.seed = 99;
  s.runs = 1;
  net::ChannelFactory inner = net::default_channel_factory();
  s.channel = [channels, inner](std::uint64_t seed) {
    channels->fetch_add(1, std::memory_order_relaxed);
    return inner(seed);
  };
  return s;
}

model::NetworkConfig exec_config(int lvl = 1) {
  model::Scenario sc;
  return sc.make_config(model::Topology::from_locations({0, 1, 3, 5}), lvl,
                        model::MacProtocol::kCsma,
                        model::RoutingProtocol::kStar);
}

TEST(BatchEvaluator, RejectsNegativeThreads) {
  auto channels = std::make_shared<std::atomic<int>>(0);
  dse::Evaluator eval(counting_settings(channels));
  EXPECT_THROW((BatchEvaluator{eval, -1}), ModelError);
}

/// Threads of this process right now.
std::ptrdiff_t live_threads() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator{});
}

TEST(BatchEvaluator, StartsItsPoolOnlyWhenADesignMustBeSimulated) {
  auto channels = std::make_shared<std::atomic<int>>(0);
  dse::Evaluator eval(counting_settings(channels));
  const std::vector<model::NetworkConfig> cached{exec_config(0)};
  (void)eval.evaluate(cached.front());
  const std::ptrdiff_t before = live_threads();
  BatchEvaluator batch(eval, 2);
  EXPECT_EQ(batch.threads(), 2);
  (void)batch.evaluate(cached);  // a cache hit: nothing to simulate
  EXPECT_EQ(live_threads(), before);
  EXPECT_EQ(channels->load(), 1);
  (void)batch.evaluate({exec_config(1)});
  // At least: a sanitizer runtime may start a helper thread of its own.
  EXPECT_GE(live_threads(), before + 2);
  EXPECT_EQ(batch.threads(), 2);
  EXPECT_EQ(channels->load(), 2);
}

TEST(BatchEvaluator, InFlightDedupConcurrentRequestsForOneKey) {
  // N concurrent batch calls all asking for the same design point must
  // trigger exactly one simulation; everyone else rides the shared
  // future / the cache.
  auto channels = std::make_shared<std::atomic<int>>(0);
  dse::Evaluator eval(counting_settings(channels));
  BatchEvaluator batch(eval, 4);
  const std::vector<model::NetworkConfig> one{exec_config()};

  constexpr int kCallers = 8;
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&batch, &one] { (void)batch.evaluate(one); });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  EXPECT_EQ(channels->load(), 1);  // exactly one simulation ran
  EXPECT_EQ(eval.simulations(), 1u);
  EXPECT_EQ(eval.cache_hits(), static_cast<std::uint64_t>(kCallers - 1));
}

TEST(BatchEvaluator, DuplicatesWithinABatchSimulateOnce) {
  auto channels = std::make_shared<std::atomic<int>>(0);
  dse::Evaluator eval(counting_settings(channels));
  BatchEvaluator batch(eval, 4);
  const std::vector<model::NetworkConfig> cfgs{
      exec_config(0), exec_config(1), exec_config(0), exec_config(0),
      exec_config(1)};
  const auto evals = batch.evaluate(cfgs);
  ASSERT_EQ(evals.size(), cfgs.size());
  EXPECT_EQ(channels->load(), 2);  // two distinct design points
  // Counters replay the serial bookkeeping: 2 misses + 3 in-batch hits.
  EXPECT_EQ(eval.simulations(), 2u);
  EXPECT_EQ(eval.cache_hits(), 3u);
  // Duplicate entries alias the same cached result.
  EXPECT_EQ(evals[0], evals[2]);
  EXPECT_EQ(evals[0], evals[3]);
  EXPECT_EQ(evals[1], evals[4]);
}

TEST(BatchEvaluator, ParallelResultsMatchSerialBitForBit) {
  auto ch_a = std::make_shared<std::atomic<int>>(0);
  auto ch_b = std::make_shared<std::atomic<int>>(0);
  dse::Evaluator serial(counting_settings(ch_a));
  dse::Evaluator parallel(counting_settings(ch_b));
  BatchEvaluator batch(parallel, 3);
  std::vector<model::NetworkConfig> cfgs;
  for (int lvl = 0; lvl < 3; ++lvl) {
    cfgs.push_back(exec_config(lvl));
  }
  const auto par = batch.evaluate(cfgs);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const dse::Evaluation& ser = serial.evaluate(cfgs[i]);
    EXPECT_EQ(ser.pdr, par[i]->pdr);
    EXPECT_EQ(ser.power_mw, par[i]->power_mw);
    EXPECT_EQ(ser.nlt_s, par[i]->nlt_s);
  }
  EXPECT_EQ(serial.simulations(), parallel.simulations());
  EXPECT_EQ(serial.cache_hits(), parallel.cache_hits());
}

TEST(BatchEvaluator, PropagatesSimulationErrorsLikeSerial) {
  // A star config whose coordinator carries no node: simulate() rejects
  // it at run time.  The batch path must surface the same ModelError.
  auto channels = std::make_shared<std::atomic<int>>(0);
  dse::Evaluator eval(counting_settings(channels));
  BatchEvaluator batch(eval, 2);
  model::NetworkConfig bad = exec_config();
  bad.topology = model::Topology::from_locations({1, 3, 5, 6});  // no loc 0
  EXPECT_THROW(batch.evaluate({bad}), ModelError);
  // The failure is not cached: a retry fails identically (serial parity).
  EXPECT_THROW(batch.evaluate({bad}), ModelError);
  EXPECT_FALSE(eval.cached(bad));
}

TEST(BatchEvaluator, SerialFallbackUsesNoPool) {
  auto channels = std::make_shared<std::atomic<int>>(0);
  dse::Evaluator eval(counting_settings(channels));
  BatchEvaluator batch(eval, 0);
  EXPECT_EQ(batch.threads(), 0);
  const auto evals = batch.evaluate({exec_config(), exec_config()});
  ASSERT_EQ(evals.size(), 2u);
  EXPECT_EQ(evals[0], evals[1]);
  EXPECT_EQ(eval.simulations(), 1u);
  EXPECT_EQ(eval.cache_hits(), 1u);
}

}  // namespace
}  // namespace hi::exec
