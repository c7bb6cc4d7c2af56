// Microbenchmarks of the optimization stack: simplex solves,
// branch-and-bound, and the full DSE MILP round and level sweep.  These
// are the knobs that decide whether the MILP half of Algorithm 1 is
// negligible next to the simulations (it must be — in the paper CPLEX
// solves are instant next to Castalia).  Committed
// baseline: BENCH_milp_perf.json (DESIGN.md §11).
//
// Emits the "hi-bench/v1" JSON report on stdout; progress on stderr.
// All rate metrics are intensive, so HI_BENCH_QUICK runs remain
// comparable to full baselines within the wider quick tolerance.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "dse/milp_encoding.hpp"
#include "lp/simplex.hpp"
#include "milp/solver.hpp"
#include "model/design_space.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace hi;

volatile std::uint64_t g_sink = 0;  ///< defeats dead-code elimination

/// Random dense-ish LP with n variables and m rows.
lp::Problem random_lp(int n, int m, std::uint64_t seed) {
  Rng rng(seed);
  lp::Problem p;
  p.set_objective(lp::Objective::kMaximize);
  for (int j = 0; j < n; ++j) {
    p.add_variable(0.0, rng.uniform(0.5, 4.0), rng.uniform(0.0, 3.0));
  }
  for (int r = 0; r < m; ++r) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j) {
      terms.push_back({j, rng.uniform(0.0, 2.0)});
    }
    p.add_constraint(terms, lp::Sense::kLessEqual, rng.uniform(1.0, 5.0));
  }
  return p;
}

void simplex_solve(bench::BenchReport& rep, int reps, int n, int solves) {
  const lp::Problem p = random_lp(n, n, 42);
  const double wall = bench::time_best_of(reps, [&] {
    for (int i = 0; i < solves; ++i) {
      g_sink = g_sink + static_cast<std::uint64_t>(lp::solve_simplex(p).status);
    }
  });
  rep.add_rate("simplex_solve_n" + std::to_string(n), "solves/s",
               static_cast<std::uint64_t>(solves), wall);
}

void milp_knapsack(bench::BenchReport& rep, int reps, int n, int solves) {
  Rng rng(7);
  milp::Model m;
  m.set_objective(lp::Objective::kMaximize);
  std::vector<lp::Term> row;
  for (int j = 0; j < n; ++j) {
    m.add_binary(rng.uniform(1.0, 10.0));
    row.push_back({j, rng.uniform(1.0, 10.0)});
  }
  m.add_constraint(row, lp::Sense::kLessEqual, 2.5 * n);
  const double wall = bench::time_best_of(reps, [&] {
    for (int i = 0; i < solves; ++i) {
      g_sink = g_sink + static_cast<std::uint64_t>(milp::solve(m).status);
    }
  });
  rep.add_rate("milp_knapsack_n" + std::to_string(n), "solves/s",
               static_cast<std::uint64_t>(solves), wall);
}

void dse_milp_round(bench::BenchReport& rep, int reps, int rounds) {
  const model::Scenario scenario;
  const double wall = bench::time_best_of(reps, [&] {
    for (int i = 0; i < rounds; ++i) {
      dse::MilpEncoding enc(scenario);
      g_sink = g_sink + enc.run_milp().candidates.size();
    }
  });
  rep.add_rate("dse_milp_round", "rounds/s",
               static_cast<std::uint64_t>(rounds), wall);
}

/// One full level walk on the paper scenario: every round until the
/// MILP runs dry.
void walk_all_levels(const model::Scenario& scenario,
                     const milp::Options& opt) {
  dse::MilpEncoding enc(scenario);
  for (;;) {
    const dse::MilpRound r = enc.run_milp(opt);
    if (r.status != lp::Status::kOptimal) break;
    g_sink = g_sink + 1;
    enc.add_power_cut_above(r.power_mw);
  }
}

void dse_milp_all_levels(bench::BenchReport& rep, int reps, int sweeps) {
  const model::Scenario scenario;
  const double wall = bench::time_best_of(reps, [&] {
    for (int i = 0; i < sweeps; ++i) {
      walk_all_levels(scenario, {});
    }
  });
  rep.add_rate("dse_milp_all_levels", "sweeps/s",
               static_cast<std::uint64_t>(sweeps), wall);
  // The walk's pivot and node counts are deterministic: exact rows, so
  // any change to the pivot path shows up as a baseline diff.
  obs::MetricsRegistry metrics;
  milp::Options counted;
  counted.metrics = &metrics;
  walk_all_levels(scenario, counted);
  for (const char* row : {"lp_pivots", "bnb_nodes"}) {
    const std::uint64_t n =
        metrics.counter(std::string("milp.") + row).value();
    rep.add(bench::BenchMetric{std::string("dse_milp_all_levels_") + row,
                               "count", static_cast<double>(n), "exact", true,
                               n, 0.0});
  }
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const int reps = quick ? 2 : 3;
  const int scale = quick ? 4 : 1;  // divide iteration counts by this

  std::cerr << "bench_milp_perf: " << (quick ? "quick" : "full")
            << " (JSON on stdout)\n";

  bench::BenchReport rep("milp_perf", bench::experiment_settings());
  // Counts sized so each timed window stays above ~1 ms at full scale.
  simplex_solve(rep, reps, 10, 2000 / scale);
  simplex_solve(rep, reps, 40, 100 / scale);
  simplex_solve(rep, reps, 80, 40 / scale);
  milp_knapsack(rep, reps, 10, 200 / scale);
  milp_knapsack(rep, reps, 20, 40 / scale);
  // The DSE rows time at least ~50 ms in both modes: a window that
  // short is still cheap, and long enough for the paired gate's 10 %.
  dse_milp_round(rep, reps, 2000);
  dse_milp_all_levels(rep, reps, 1000);

  rep.write(std::cout);
  return 0;
}
