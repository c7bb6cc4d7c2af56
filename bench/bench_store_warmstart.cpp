// Measures what hi::store warm start is worth and what reopening a warm
// store costs: the same Algorithm 1 run executed cold (fresh store,
// every point simulated) and then warm (a second process-like pass
// preloading the store), followed by the store's set-up path on the
// file the cold leg wrote — its CRC-32 and whole reopens — emitted as a
// hi-bench/v1 report on stdout (scripts/bench.sh gates it as `store`).
//
// The correctness contracts are asserted on the fly, mirroring the
// hi::check warm-start determinism property: the warmed run must return
// the cold run's optimum bit-for-bit, pay for zero fresh simulations
// (Algorithm 1 is deterministic, so a full store answers everything),
// and account every served point in dse.store_hits.
//
// Rows:
//   store_crc32         MB/s of store::crc32 over the store's bytes,
//                       at least 64 MiB hashed per sample
//   store_open          records/s of EvalStore opens (read, CRC check,
//                       decode, index) repeated for at least 50 ms per
//                       sample — the set-up every requery, resumed
//                       campaign and warm Pareto sweep pays first
//   store_open_records  records one open recovers (exact)
//   cold_simulations, warm_store_hits, best_power_mw  (exact)
//   cold_wall_s, warm_wall_s                          (not gated)
// Rate rows are the best of several samples (3 in quick mode, else 5).
//
// The usual HI_TSIM / HI_RUNS / HI_SEED knobs apply (scripts/bench.sh
// pins HI_TSIM=5, the Tsim of e2e_bench's certify and requery stores);
// HI_PDR_MIN (default 0.9) picks the reliability bound.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "dse/explorer.hpp"
#include "store/record_log.hpp"
#include "store/store.hpp"

namespace {

using Clock = std::chrono::steady_clock;

volatile std::uint32_t g_sink = 0;  ///< defeats dead-code elimination

struct Leg {
  double wall_s = 0.0;
  std::uint64_t simulations = 0;
  std::uint64_t store_hits = 0;
  std::size_t preloaded = 0;
  bool feasible = false;
  double best_power_mw = 0.0;
};

Leg run_leg(const hi::dse::EvaluatorSettings& base,
            const std::string& store_path, double pdr_min) {
  using namespace hi;
  store::EvalStore st(store_path);
  dse::Evaluator eval(base);
  const store::WarmStartStats warm = store::warm_start(eval, st);
  dse::ExplorationOptions opt;
  opt.pdr_min = pdr_min;
  const dse::ExplorationResult r =
      dse::run_algorithm1(model::Scenario{}, eval, opt);
  return Leg{r.wall_time_s, r.simulations,   eval.store_hits(),
             warm.preloaded, r.feasible,     r.best_power_mw};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-`samples` store::crc32 throughput over `bytes`, each sample
/// hashing the buffer until at least 64 MiB have gone through.
hi::bench::BenchMetric crc32_rate(const std::string& bytes, int samples) {
  constexpr std::size_t kSampleBytes = std::size_t{64} << 20;
  const std::size_t reps = (kSampleBytes + bytes.size() - 1) / bytes.size();
  const double wall = hi::bench::time_best_of(samples, [&] {
    for (std::size_t i = 0; i < reps; ++i) {
      g_sink = g_sink ^ hi::store::crc32(bytes);
    }
  });
  const std::uint64_t hashed = reps * bytes.size();
  return {"store_crc32", "MB/s", static_cast<double>(hashed) / 1e6 / wall,
          "higher", true, hashed, wall};
}

/// Best-of-`samples` open throughput in records/s: each sample reopens
/// the store at `path` until at least 50 ms have passed.
hi::bench::BenchMetric open_rate(const std::string& path,
                                 std::size_t records, int samples) {
  double best_rate = 0.0;
  std::uint64_t best_items = 0;
  double best_wall = 0.0;
  for (int s = 0; s < samples; ++s) {
    std::uint64_t opens = 0;
    const Clock::time_point t0 = Clock::now();
    double wall = 0.0;
    do {
      const hi::store::EvalStore st(path);
      HI_ASSERT_MSG(st.eval_count() == records,
                    "reopen recovered " << st.eval_count() << " of "
                                        << records << " records");
      ++opens;
      wall = seconds_since(t0);
    } while (wall < 0.05);
    const std::uint64_t items = opens * records;
    const double rate = static_cast<double>(items) / wall;
    if (rate > best_rate) {
      best_rate = rate;
      best_items = items;
      best_wall = wall;
    }
  }
  return {"store_open", "records/s", best_rate, "higher", true, best_items,
          best_wall};
}

hi::bench::BenchMetric exact(const std::string& name, const std::string& unit,
                             double value) {
  return {name, unit, value, "exact", true, 0, 0.0};
}

hi::bench::BenchMetric wall_clock(const std::string& name, double wall_s) {
  return {name, "s", wall_s, "lower", false, 0, wall_s};
}

}  // namespace

int main() {
  using namespace hi;
  const dse::EvaluatorSettings base = bench::experiment_settings();
  const double pdr_min = bench::env_double("HI_PDR_MIN", 0.9);
  const int samples = bench::quick_mode() ? 3 : 5;
  const std::string store_path =
      "bench_warmstart-" + std::to_string(::getpid()) + ".store";

  std::cerr << "bench_store_warmstart: Tsim=" << base.sim.duration_s
            << " s, runs=" << base.runs << ", seed=" << base.sim.seed
            << ", pdr_min=" << pdr_min << " (JSON on stdout)\n";

  // Cold leg: empty store, write-through fills it as Algorithm 1 runs.
  const Leg cold = run_leg(base, store_path, pdr_min);
  std::cerr << "  cold: " << cold.wall_s << " s, " << cold.simulations
            << " simulations\n";

  // Warm leg: a fresh evaluator (as a new process would have) preloaded
  // from the store the cold leg just wrote.
  const Leg warm = run_leg(base, store_path, pdr_min);
  std::cerr << "  warm: " << warm.wall_s << " s, " << warm.store_hits
            << " store hits\n";

  HI_ASSERT_MSG(cold.store_hits == 0 && cold.preloaded == 0,
                "cold leg was not cold — stale " << store_path << "?");
  HI_ASSERT_MSG(warm.feasible == cold.feasible &&
                    warm.best_power_mw == cold.best_power_mw,
                "warm start changed the optimum — determinism contract "
                "violated");
  HI_ASSERT_MSG(warm.simulations + warm.store_hits == cold.simulations,
                "warm accounting broken: " << warm.simulations << " + "
                                           << warm.store_hits
                                           << " != " << cold.simulations);
  HI_ASSERT_MSG(warm.simulations == 0,
                "a deterministic replay re-simulated "
                    << warm.simulations << " point(s)");

  // The set-up path on the store the cold leg wrote.
  const std::size_t records = store::EvalStore(store_path).eval_count();
  const bench::BenchMetric crc = crc32_rate(read_file(store_path), samples);
  const bench::BenchMetric open = open_rate(store_path, records, samples);
  std::cerr << "  store: " << records << " records, crc32 " << crc.value
            << " MB/s, open " << open.value << " records/s\n";
  std::remove(store_path.c_str());

  bench::BenchReport rep("store", base);
  rep.add(crc);
  rep.add(open);
  rep.add(exact("store_open_records", "count", static_cast<double>(records)));
  rep.add(exact("cold_simulations", "count",
                static_cast<double>(cold.simulations)));
  rep.add(exact("warm_store_hits", "count",
                static_cast<double>(warm.store_hits)));
  rep.add(exact("best_power_mw", "mW", cold.best_power_mw));
  rep.add(wall_clock("cold_wall_s", cold.wall_s));
  rep.add(wall_clock("warm_wall_s", warm.wall_s));
  rep.write(std::cout);
  return 0;
}
