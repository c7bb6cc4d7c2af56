// Microbenchmarks of the discrete-event simulator: kernel event
// throughput (schedule/run, self-rescheduling, cancellation churn),
// end-to-end WBAN simulation speed per configuration class on the paper
// scenario, a cohort of designs sharing channel seeds (the explorer's
// pattern), and channel sampling cost.  These numbers bound how large a
// Tsim / design space the explorer can afford; the committed baseline
// (BENCH_des_perf.json) is the repo's perf trajectory for the hot path
// (DESIGN.md §11).
//
// Emits the "hi-bench/v1" JSON report on stdout; progress on stderr.
// All rate metrics are intensive (per-second), so HI_BENCH_QUICK runs
// remain comparable to full baselines within the wider quick tolerance.
// The crowd metrics keep the full simulated duration even in quick mode:
// their timed region includes the O(M^2) CrowdChannel construction, a
// fixed cost that would dominate a shortened run and sink the rate.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "channel/channel.hpp"
#include "crowd/crowd.hpp"
#include "des/kernel.hpp"
#include "dse/evaluator.hpp"
#include "model/crowd.hpp"
#include "model/design_space.hpp"
#include "net/network.hpp"

namespace {

using namespace hi;

volatile std::uint64_t g_sink = 0;  ///< defeats dead-code elimination

/// Schedule n events at pseudo-random times, then drain the heap.
void kernel_schedule_run(bench::BenchReport& rep, int reps, std::int64_t n) {
  std::uint64_t fired = 0;
  const double wall = bench::time_best_of(reps, [&] {
    des::Kernel k;
    fired = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      // 64-bit arithmetic: i * 48271 overflows int near n = 50k.
      k.schedule_at(static_cast<double>((i * 48271) % n),
                    [&fired] { ++fired; });
    }
    k.run_to_completion();
  });
  g_sink = g_sink + fired;
  rep.add_rate("kernel_schedule_run", "events/s",
               static_cast<std::uint64_t>(n), wall);
}

/// One event alive at a time, rescheduling itself: the latency floor.
void kernel_self_resched(bench::BenchReport& rep, int reps, int ticks) {
  int count = 0;
  const double wall = bench::time_best_of(reps, [&] {
    des::Kernel k;
    count = 0;
    struct Tick {
      des::Kernel* k;
      int* count;
      int limit;
      void operator()() const {
        if (++*count < limit) k->schedule_in(0.001, *this);
      }
    };
    k.schedule_in(0.001, Tick{&k, &count, ticks});
    k.run_to_completion();
  });
  g_sink = g_sink + static_cast<std::uint64_t>(count);
  rep.add_rate("kernel_self_resched", "events/s",
               static_cast<std::uint64_t>(ticks), wall);
}

/// Schedule n, cancel every other one, drain: exercises the indexed
/// heap's O(log n) in-place removal.
void kernel_cancel_churn(bench::BenchReport& rep, int reps, std::int64_t n) {
  std::uint64_t fired = 0;
  std::vector<des::EventId> ids;
  ids.reserve(static_cast<std::size_t>(n));
  const double wall = bench::time_best_of(reps, [&] {
    des::Kernel k;
    ids.clear();
    fired = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      ids.push_back(k.schedule_at(static_cast<double>((i * 48271) % n),
                                  [&fired] { ++fired; }));
    }
    for (std::int64_t i = 0; i < n; i += 2) {
      k.cancel(ids[static_cast<std::size_t>(i)]);
    }
    k.run_to_completion();
  });
  g_sink = g_sink + fired;
  // Ops = schedules + cancels + dispatches.
  rep.add_rate("kernel_cancel_churn", "ops/s",
               static_cast<std::uint64_t>(n + n / 2 + n / 2), wall);
}

/// End-to-end simulation throughput on the paper scenario (N=5,
/// locations {chest, l-hip, l-ankle, l-wrist, l-upper-arm}, Tx level 2):
/// `sims` identical simulations per timed sample, each on a fresh channel.
void simulate_class(bench::BenchReport& rep, int reps, bool mesh, bool tdma,
                    double tsim_s, int sims) {
  const model::Scenario scenario;
  const auto cfg = scenario.make_config(
      model::Topology::from_locations({0, 1, 3, 5, 7}), 2,
      tdma ? model::MacProtocol::kTdma : model::MacProtocol::kCsma,
      mesh ? model::RoutingProtocol::kMesh : model::RoutingProtocol::kStar);
  net::SimParams sp;
  sp.duration_s = tsim_s;
  std::uint64_t events = 0;
  const double wall = bench::time_best_of(reps, [&] {
    events = 0;
    for (int i = 0; i < sims; ++i) {
      auto channel = channel::make_default_body_channel(11);
      events += net::simulate(cfg, *channel, sp).events;
    }
  });
  g_sink = g_sink + events;
  const std::string name = std::string("sim_") + (mesh ? "mesh" : "star") +
                           "_" + (tdma ? "tdma" : "csma");
  rep.add_rate(name, "events/s", events, wall);
}

/// Crowd simulation throughput (DESIGN.md §15): M replicas of the
/// paper's N=5 star/CSMA point on a dense 0.5 m grid sharing one
/// medium.  Every cross-body pair sits well above sensitivity, so the
/// batched inter-body fade sampling and the per-reception SINR folding
/// are both fully on the hot path — this is the number that bounds how
/// large a crowd sweep the explorer can afford.
void simulate_crowd_class(bench::BenchReport& rep, int reps, int bodies,
                          double tsim_s) {
  const model::Scenario scenario;
  model::CrowdScenario sc;
  sc.cfg = scenario.make_config(
      model::Topology::from_locations({0, 1, 3, 5, 7}), 2,
      model::MacProtocol::kCsma, model::RoutingProtocol::kStar);
  sc.bodies = bodies;
  sc.spacing_m = 0.5;
  net::SimParams sp;
  sp.duration_s = tsim_s;
  std::uint64_t events = 0;
  const double wall = bench::time_best_of(reps, [&] {
    auto channel = crowd::make_crowd_channel_for(sc, 11);
    const crowd::CrowdResult r = crowd::simulate_crowd(sc, *channel, sp);
    events = r.summary.events;
  });
  g_sink = g_sink + events;
  rep.add_rate("sim_crowd_m" + std::to_string(bodies), "events/s", events,
               wall);
}

/// The explorer's pattern: the first 40 feasible designs of the paper
/// scenario × 3 runs at Tsim 5 s through one Evaluator, so every design
/// faces the same channel seeds (common random numbers) and reads their
/// shared fade tapes.  Each repetition starts a fresh default channel
/// factory, so building the tapes is inside the timed region.  Same
/// Tsim in quick mode, so the event count is exact-gated in both.
void simulate_cohort(bench::BenchReport& rep, int reps) {
  const std::vector<model::NetworkConfig> space =
      model::Scenario{}.feasible_configs();
  const std::vector<model::NetworkConfig> cohort(space.begin(),
                                                 space.begin() + 40);
  dse::EvaluatorSettings s;
  s.sim.duration_s = 5.0;
  s.sim.seed = 2017;
  s.runs = 3;
  std::uint64_t events = 0;
  const double wall = bench::time_best_of(reps, [&] {
    s.channel = net::default_channel_factory();
    dse::Evaluator eval(s);
    events = 0;
    for (const model::NetworkConfig& cfg : cohort) {
      events += eval.evaluate(cfg).detail.events;
    }
  });
  rep.add_rate("sim_cohort", "events/s", events, wall);
  rep.add(bench::BenchMetric{"sim_cohort_events", "count",
                             static_cast<double>(events), "exact", true,
                             events, 0.0});
}

void channel_sample(bench::BenchReport& rep, int reps, std::int64_t n) {
  auto ch = channel::make_default_body_channel(3);
  double acc = 0.0;
  double t = 0.0;
  const double wall = bench::time_best_of(reps, [&] {
    for (std::int64_t i = 0; i < n; ++i) {
      t += 0.01;
      acc += ch->path_loss_db(0, 3, t);
    }
  });
  g_sink = g_sink + static_cast<std::uint64_t>(acc);
  rep.add_rate("channel_sample", "samples/s", static_cast<std::uint64_t>(n),
               wall);
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const int reps = quick ? 2 : 3;
  dse::EvaluatorSettings s = bench::experiment_settings();
  // The simulate metrics use a fixed per-run duration so the committed
  // baseline is comparable across machines/settings; quick mode shrinks
  // it (events/s barely moves — the startup transient is tiny).
  const double tsim_s = quick ? 10.0 : 60.0;
  s.sim.duration_s = tsim_s;

  std::cerr << "bench_des_perf: " << (quick ? "quick" : "full")
            << " (JSON on stdout)\n";

  bench::BenchReport rep("des_perf", s);
  kernel_schedule_run(rep, reps, quick ? 20'000 : 100'000);
  // The self-rescheduling and per-class rows repeat their work until a
  // timed sample is tens of milliseconds (the star classes are the
  // shortest), long enough for the paired gate's 10 %.
  kernel_self_resched(rep, reps, quick ? 1'000'000 : 4'000'000);
  kernel_cancel_churn(rep, reps, quick ? 10'000 : 50'000);
  const int sims = quick ? 64 : 24;
  simulate_class(rep, reps, /*mesh=*/false, /*tdma=*/false, tsim_s, sims);
  simulate_class(rep, reps, /*mesh=*/false, /*tdma=*/true, tsim_s, sims);
  simulate_class(rep, reps, /*mesh=*/true, /*tdma=*/false, tsim_s, sims);
  simulate_class(rep, reps, /*mesh=*/true, /*tdma=*/true, tsim_s, sims);
  simulate_crowd_class(rep, reps, /*bodies=*/2, /*tsim_s=*/60.0);
  simulate_crowd_class(rep, reps, /*bodies=*/8, /*tsim_s=*/60.0);
  simulate_cohort(rep, reps);
  channel_sample(rep, reps, quick ? 200'000 : 1'000'000);

  rep.write(std::cout);
  return 0;
}
