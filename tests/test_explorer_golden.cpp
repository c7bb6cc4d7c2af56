// Golden explorer outputs: every strategy's full history, optimum and
// cost counters, plus the store fingerprints of the option sets that
// select them, pinned as literals.
//
// The literals were recorded from the explorers as they stood before
// nominal runs were routed through the K-realization fold
// (dse::RobustBatch at K=1, Γ=0).  They pin that refactor's contract:
// a nominal run must visit the same designs in the same order, measure
// the same doubles bit for bit, return the same optimum and pay the
// same simulations, MILP solves and network runs.  Deliberately NOT
// pinned (they changed on purpose with that refactor): the K=1 CI
// fields `pdr_lo` / `pdr_hi` / `best_pdr_lo` / `best_pdr_hi`, the
// `dse.realizations` counter and `dse.cache_hits`.
//
// If a future change moves a row on purpose (a genuine behaviour
// change, not a refactor), regenerate the rows — a failing check prints
// the replacement literal — and say why in the change.  Never loosen a
// comparison.
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/scenario_gen.hpp"
#include "dse/evaluator.hpp"
#include "dse/explorer.hpp"
#include "pareto/sweep.hpp"
#include "store/serialize.hpp"

namespace {

using namespace hi;

/// SHA-256 prefix over a sequence of records (design key + IEEE bits).
class HistoryDigest {
 public:
  void add(const model::NetworkConfig& cfg, std::initializer_list<double> v) {
    w_.put_u64(cfg.design_key());
    for (double d : v) w_.put_f64(d);
  }
  [[nodiscard]] std::string hex() const {
    return store::sha256(w_.bytes()).hex().substr(0, 16);
  }

 private:
  store::ByteWriter w_;
};

/// One pinned run.  `net_runs` depends on the shared evaluator's cache
/// (only fresh simulations run the network), so the runs of a scenario
/// execute in a fixed order.
struct Pin {
  std::string name;
  std::string digest;
  std::size_t visited = 0;
  bool feasible = false;
  std::uint64_t best_key = 0;
  std::uint64_t best_power_bits = 0;
  std::uint64_t sims = 0;
  std::uint64_t milp_solves = 0;
  std::uint64_t net_runs = 0;
};

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

std::string literal(const Pin& p) {
  std::ostringstream os;
  os << "{\"" << p.name << "\", \"" << p.digest << "\", " << p.visited
     << ", " << (p.feasible ? "true" : "false") << ", 0x" << std::hex
     << p.best_key << "ull, 0x" << p.best_power_bits << "ull, " << std::dec
     << p.sims << ", " << p.milp_solves << ", " << p.net_runs << "},";
  return os.str();
}

void expect_pin(const Pin& got, const std::vector<Pin>& table) {
  for (const Pin& want : table) {
    if (want.name != got.name) continue;
    const bool same =
        got.digest == want.digest && got.visited == want.visited &&
        got.feasible == want.feasible && got.best_key == want.best_key &&
        got.best_power_bits == want.best_power_bits &&
        got.sims == want.sims && got.milp_solves == want.milp_solves &&
        got.net_runs == want.net_runs;
    EXPECT_TRUE(same) << "pin moved; now " << literal(got);
    return;
  }
  ADD_FAILURE() << "no pin row; add " << literal(got);
}

Pin pin_of(const std::string& name, const dse::ExplorationResult& res) {
  Pin p;
  p.name = name;
  HistoryDigest d;
  for (const dse::CandidateRecord& r : res.history) {
    d.add(r.cfg, {r.analytic_power_mw, r.sim_pdr, r.sim_power_mw, r.sim_nlt_s});
  }
  p.digest = d.hex();
  p.visited = res.history.size();
  p.feasible = res.feasible;
  if (res.feasible) {
    p.best_key = res.best.design_key();
    p.best_power_bits = bits(res.best_power_mw);
  }
  p.sims = res.metrics.counter("dse.simulations");
  p.milp_solves = res.metrics.counter("milp.solves");
  p.net_runs = res.metrics.counter("net.runs");
  return p;
}

Pin pin_of(const std::string& name, const pareto::SweepResult& res,
           const obs::MetricsRegistry& reg) {
  Pin p;
  p.name = name;
  HistoryDigest d;
  const auto add = [&](const pareto::FrontPoint& fp) {
    d.add(fp.cfg, {fp.power_mw, fp.pdr, fp.p95_s, fp.nlt_s, fp.pdr_lo,
                   fp.pdr_hi, fp.protection_mw});
  };
  for (const pareto::FrontPoint& fp : res.front) add(fp);
  for (const pareto::RungResult& rr : res.rungs) {
    if (rr.feasible) add(rr.best);
  }
  p.digest = d.hex();
  p.visited = res.evaluated;
  p.feasible = !res.rungs.empty() && res.rungs.back().feasible;
  if (p.feasible) {
    p.best_key = res.rungs.back().best.cfg.design_key();
    p.best_power_bits = bits(res.rungs.back().best.power_mw);
  }
  const obs::Snapshot s = reg.snapshot();
  p.sims = res.simulations;
  p.milp_solves = s.counter("milp.solves");
  p.net_runs = s.counter("net.runs");
  return p;
}

const std::vector<Pin>& explorer_pins() {
  static const std::vector<Pin> rows = {
      {"s2.alg1.sound", "d2b4f557261e0763", 48, true, 0x93090538757a7153ull, 0x3fcc554d999aa06aull, 48, 7, 48},
      {"s2.alg1.alpha", "dbcf007596e6cb34", 8, true, 0x93090538757a7153ull, 0x3fcc554d999aa06aull, 8, 2, 0},
      {"s2.alg1.none", "d2b4f557261e0763", 48, true, 0x93090538757a7153ull, 0x3fcc554d999aa06aull, 48, 7, 0},
      {"s2.fast_ilp", "b5f60a108a4c45d2", 24, true, 0x93090538757a7153ull, 0x3fcc554d999aa06aull, 24, 3, 0},
      {"s2.annealing", "dd160e1784705aa8", 61, true, 0x14adc5c356b436f9ull, 0x3fcecd815d9f1796ull, 10, 0, 0},
      {"s2.exhaustive", "d8a927c64777e0b9", 48, true, 0x93090538757a7153ull, 0x3fcc554d999aa06aull, 48, 0, 0},
      {"s2.alg1.robust", "30326535c3c29a79", 48, true, 0x14adc5c356b436f9ull, 0x3fd50aedd5c63874ull, 144, 7, 96},
      {"s2.exhaustive_front", "2d73e985a00a5226", 48, true, 0x695bd3c57aa23acull, 0x3fcd6525e9387ea4ull, 48, 0, 0},
      {"s2.ladder_front", "2d73e985a00a5226", 48, true, 0x695bd3c57aa23acull, 0x3fcd6525e9387ea4ull, 48, 7, 0},
      {"s7.alg1.sound", "08d002c77de1ef6c", 24, true, 0xcc756a7d93d5b290ull, 0x3fcba94c4cc273c8ull, 24, 7, 24},
      {"s7.alg1.alpha", "556c56a075a3a2a0", 8, true, 0x8c85cefea499ea2full, 0x3fcc33d7ee3c19d3ull, 8, 3, 0},
      {"s7.alg1.none", "08d002c77de1ef6c", 24, true, 0xcc756a7d93d5b290ull, 0x3fcba94c4cc273c8ull, 24, 7, 0},
      {"s7.fast_ilp", "f7b68ef325f52615", 12, true, 0x8c85cefea499ea2full, 0x3fcc33d7ee3c19d3ull, 12, 3, 0},
      {"s7.annealing", "828cd5fa46853ba7", 61, true, 0x489e747eaae072dbull, 0x3fcca785e6f44eb7ull, 11, 0, 0},
      {"s7.exhaustive", "e15dc2d7eb1ac61f", 24, true, 0xcc756a7d93d5b290ull, 0x3fcba94c4cc273c8ull, 24, 0, 0},
      {"s7.alg1.robust", "9e17a08f01921a78", 24, true, 0xcc756a7d93d5b290ull, 0x3fcd86b625a7e576ull, 72, 7, 48},
      {"s7.exhaustive_front", "1c541a1e0613a5b0", 24, true, 0xcc756a7d93d5b290ull, 0x3fcba94c4cc273c8ull, 24, 0, 0},
      {"s7.ladder_front", "1c541a1e0613a5b0", 24, true, 0xcc756a7d93d5b290ull, 0x3fcba94c4cc273c8ull, 24, 7, 0},
  };
  return rows;
}

/// Runs every explorer on one generated scenario through ONE evaluator,
/// counters reset per run, in a fixed order.
void run_scenario(std::uint64_t seed, bool latency) {
  check::ScenarioSpec spec = check::make_scenario(seed);
  spec.settings.sim.collect_latency = latency;
  dse::Evaluator eval(spec.settings);
  const std::string tag = "s" + std::to_string(seed) + ".";
  const auto run = [&](const std::string& name, dse::ExplorerKind kind,
                       const dse::ExplorationOptions& opt) {
    eval.reset_counters();
    expect_pin(pin_of(tag + name, dse::explore(kind, spec.scenario, eval, opt)),
               explorer_pins());
  };

  dse::ExplorationOptions opt;
  opt.pdr_min = 0.7;
  run("alg1.sound", dse::ExplorerKind::kAlgorithm1, opt);
  dse::ExplorationOptions alpha = opt;
  alpha.bound = dse::TerminationBound::kPaperAlpha;
  run("alg1.alpha", dse::ExplorerKind::kAlgorithm1, alpha);
  dse::ExplorationOptions dry = opt;
  dry.bound = dse::TerminationBound::kNone;
  run("alg1.none", dse::ExplorerKind::kAlgorithm1, dry);
  run("fast_ilp", dse::ExplorerKind::kFastIlp, opt);
  dse::ExplorationOptions sa = opt;
  sa.budget = 60;
  run("annealing", dse::ExplorerKind::kAnnealing, sa);
  run("exhaustive", dse::ExplorerKind::kExhaustive, opt);
  dse::ExplorationOptions robust = opt;
  robust.robust = dse::RobustnessOptions{2, 3, 0.9};
  run("alg1.robust", dse::ExplorerKind::kAlgorithm1, robust);

  pareto::SweepOptions sweep;
  sweep.pdr_ladder = {0.5, 0.7, 0.9};
  for (const bool ladder : {false, true}) {
    obs::MetricsRegistry reg;
    sweep.run.metrics = &reg;
    eval.reset_counters();
    const pareto::SweepResult res =
        ladder ? pareto::ladder_front(spec.scenario, eval, sweep)
               : pareto::exhaustive_front(spec.scenario, eval, sweep);
    expect_pin(pin_of(tag + (ladder ? "ladder_front" : "exhaustive_front"),
                      res, reg),
               explorer_pins());
  }
}

TEST(ExplorerGolden, NominalScenario2) { run_scenario(2, false); }

TEST(ExplorerGolden, LatencyScenario7) { run_scenario(7, true); }

TEST(ExplorerGolden, StoreFingerprints) {
  dse::ExplorationOptions none;
  none.bound = dse::TerminationBound::kNone;
  dse::ExplorationOptions alpha;
  alpha.bound = dse::TerminationBound::kPaperAlpha;
  dse::ExplorationOptions robust;
  robust.robust = dse::RobustnessOptions{2, 3, 0.95};
  const struct {
    dse::ExplorationOptions opt;
    dse::ExplorerKind kind;
    const char* hex;
  } options[] = {
      {{}, dse::ExplorerKind::kAlgorithm1,
       "8aacfbc3b3d581948dca91b29e812fe9e7e86778462db9cc42c868f9fa9d491d"},
      {none, dse::ExplorerKind::kAlgorithm1,
       "6a023cac69c9058bb8a16c6ca83fa10de82d9013197ea8e25f0cdb6b28d2b6d5"},
      {alpha, dse::ExplorerKind::kAlgorithm1,
       "4d48192cd72ff6932c38c9d4e170c3f85f6110d9a302e2b6c0efa9a00932a7f4"},
      {robust, dse::ExplorerKind::kAlgorithm1,
       "b0cf54102f69cadf090232466a9c0388f93bbe38884bcd409878230a5db5ef62"},
      {{}, dse::ExplorerKind::kFastIlp,
       "c7163ecfbf9da93917a48b35b41a8b0a06fcd560ceb943803ef0d33ba2eadfe0"},
      {robust, dse::ExplorerKind::kAnnealing,
       "bc03e702c8447a5b955b8839c09df8854d3bfa5a4eb40f0fb0da98af2e664395"},
  };
  for (const auto& row : options) {
    EXPECT_EQ(store::options_fingerprint(row.opt, row.kind).hex(), row.hex)
        << dse::to_string(row.kind);
  }

  // The settings a run fingerprints: the nominal evaluator's, and at
  // K = 3 each realization child's (they differ only in channel seed).
  dse::Evaluator eval(check::make_scenario(2).settings);
  const char* settings[] = {
      "3c931a60870b61aa1a4834ecb2a464d15652d2d96c2156c33ff080d05fbec5e8",
      "99b0520b5b7622b5795c287249bfe742ea0a5bb2f8b8e6afb88654d93cbc4f5c",
      "7ddadd1a211e0a4abf716a5ebbe0f4c35fdfee2b973fb9d95702fc4fda20a30c",
  };
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(
        store::settings_fingerprint(eval.realization(k).settings(), "default")
            .hex(),
        settings[k])
        << "realization " << k;
  }
}

}  // namespace
