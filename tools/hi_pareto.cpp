// hi_pareto — Pareto frontier runner (DESIGN.md §14).  A thin argv shim
// over hi::pareto: sweep logic lives in src/pareto/, this binary parses
// flags, wires an optional warm hi::store (a rerun re-simulates zero
// points), and emits the front as versioned `hi-pareto/v1` JSON.
// `hi_pareto --bogus` prints the flags.
//
// Parallelism is in-process: --threads runs each batch on hi::exec,
// bit-identically at any thread count.  Rerunning a wider --pdr-min
// ladder against the same --store re-simulates no point already paid
// for.
//
// Exit codes: 0 success, 2 usage error (bad flag or rejected input).
#include <csignal>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/scenario_gen.hpp"
#include "cli_args.hpp"
#include "dse/robustness.hpp"
#include "model/design_space.hpp"
#include "net/network.hpp"
#include "pareto/sweep.hpp"
#include "store/json.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"

namespace {

using hi::store::detail::fmt_double;
using hi::store::detail::json_string;

void emit_point(std::ostream& os, const hi::pareto::FrontPoint& p,
                const char* indent) {
  os << indent << "{\"label\": " << json_string(p.cfg.label()) << ", "
     << "\"design_key\": " << p.cfg.design_key() << ", "
     << "\"power_mw\": " << fmt_double(p.power_mw) << ", "
     << "\"pdr\": " << fmt_double(p.pdr) << ", "
     << "\"p95_s\": " << fmt_double(p.p95_s) << ", "
     << "\"nlt_s\": " << fmt_double(p.nlt_s) << ", "
     << "\"pdr_lo\": " << fmt_double(p.pdr_lo) << ", "
     << "\"pdr_hi\": " << fmt_double(p.pdr_hi) << ", "
     << "\"protection_mw\": " << fmt_double(p.protection_mw) << "}";
}

}  // namespace

int run(int argc, char** argv) {
  namespace cli = hi::cli;
  namespace flags = hi::cli::flags;
  std::string mode = "ladder";
  std::string scenario_path;
  std::optional<std::uint64_t> gen_seed;
  std::string store_path;
  std::string out_path;
  bool dump_scenario = false;
  bool collect_latency = true;
  int kill_after_rounds = -1;
  hi::pareto::SweepOptions sweep;
  // Spelled out, so the usage text shows them: serial, and the walk's
  // 10'000-level safety valve.
  sweep.run.threads = 0;
  sweep.run.budget = 10'000;
  hi::dse::EvaluatorSettings settings;

  cli::FlagTable table({"[options]", "--dump-scenario"});
  table.section("options")
      .add(cli::choice("--mode",
                       "PDRmin ladder of MILP rungs, or the exact\n"
                       "full-space front",
                       mode,
                       {{"ladder", "ladder"}, {"exhaustive", "exhaustive"}}))
      .add(flags::scenario(cli::text(scenario_path)))
      .add(flags::gen_seed(cli::number(gen_seed)))
      .add(flags::pdr_min(sweep.pdr_ladder))
      .add(flags::gamma(sweep.run.robust.gamma))
      .add(flags::realizations(sweep.run.robust.realizations))
      .add(flags::confidence(sweep.run.robust.confidence))
      .add({"--epsilon-power", "MW", "power epsilon-dominance (0 = strict)",
            cli::number(sweep.front.epsilon_power_mw, cli::at_least(0.0))})
      .add({"--epsilon-pdr", "P", "PDR epsilon-dominance (0 = strict)",
            cli::number(sweep.front.epsilon_pdr, cli::at_least(0.0))})
      .add({"--epsilon-p95", "SEC", "p95 epsilon-dominance (0 = strict)",
            cli::number(sweep.front.epsilon_p95_s, cli::at_least(0.0))})
      .add({"--no-latency", "", "skip latency collection (p95 objective = 0;\n"
                                "keeps pre-latency store fingerprints)",
            cli::on(collect_latency, false)})
      .add(flags::store(store_path))
      .add(flags::out(out_path))
      .add(flags::threads(sweep.run.threads))
      .add(flags::tsim(settings.sim.duration_s))
      .add(flags::runs(settings.runs))
      .add(flags::seed(settings.sim.seed))
      .add({"--max-rounds", "N", "MILP round safety valve",
            cli::number(sweep.run.budget, cli::at_least(0))})
      .add({"--kill-after-rounds", "N",
            "SIGKILL self after N completed rounds, the\n"
            "store synced first (crash test hook)",
            cli::number(kill_after_rounds, cli::at_least(0))})
      .add(flags::dump_scenario(dump_scenario));
  if (!table.parse(argc, argv)) {
    return table.usage();
  }

  if (dump_scenario) {
    std::cout << hi::store::scenario_to_json(hi::model::Scenario{});
    return 0;
  }

  // ---- resolve the scenario ----------------------------------------------
  hi::model::Scenario scenario;  // default: the paper's Sec. 4.1 instance
  if (!scenario_path.empty() && gen_seed.has_value()) {
    std::cerr << "hi_pareto: --scenario and --gen-seed are exclusive\n";
    return 2;
  }
  if (!scenario_path.empty()) {
    const auto text = hi::store::detail::read_file(scenario_path);
    if (!text.has_value()) {
      std::cerr << "hi_pareto: cannot read " << scenario_path << "\n";
      return 2;
    }
    const auto parsed = hi::store::scenario_from_json(*text);
    if (!parsed.has_value()) {
      std::cerr << "hi_pareto: invalid scenario JSON in " << scenario_path
                << "\n";
      return 2;
    }
    scenario = *parsed;
  } else if (gen_seed.has_value()) {
    // Generated scenarios carry their settings; Tsim, seed and runs
    // still come from the flags.
    hi::check::ScenarioSpec spec = hi::check::make_scenario(*gen_seed);
    scenario = spec.scenario;
    spec.settings.sim.duration_s = settings.sim.duration_s;
    spec.settings.sim.seed = settings.sim.seed;
    spec.settings.runs = settings.runs;
    settings = spec.settings;
  }
  settings.sim.collect_latency = collect_latency;

  hi::dse::Evaluator eval(settings);

  // ---- optional durable store --------------------------------------------
  // Reject what every run would reject before the store file exists.
  hi::dse::require_valid(sweep.run.robust);
  hi::net::require_valid(settings.sim);
  std::unique_ptr<hi::store::EvalStore> store;
  hi::store::WarmStartStats warm{};
  if (!store_path.empty()) {
    store = std::make_unique<hi::store::EvalStore>(store_path);
    warm = hi::store::warm_start(eval, *store, sweep.run.robust.realizations);
  }

  sweep.run.progress = [&](const hi::dse::ProgressInfo& info) {
    if (store != nullptr) {
      store->sync();  // a killed run never loses a completed round
    }
    if (kill_after_rounds >= 0 && info.iteration >= kill_after_rounds) {
      std::raise(SIGKILL);
    }
  };

  const hi::pareto::SweepResult res =
      mode == "exhaustive" ? hi::pareto::exhaustive_front(scenario, eval, sweep)
                           : hi::pareto::ladder_front(scenario, eval, sweep);
  if (store != nullptr) {
    store->sync();
  }

  // ---- hi-pareto/v1 report -----------------------------------------------
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"hi-pareto/v1\",\n";
  os << "  \"mode\": \"" << mode << "\",\n";
  const std::string tag =
      store != nullptr ? store->channel_tag() : std::string("default");
  os << "  \"scenario_fp\": \""
     << hi::store::scenario_fingerprint(scenario).hex() << "\",\n";
  os << "  \"settings_fp\": \""
     << hi::store::settings_fingerprint(settings, tag).hex() << "\",\n";
  os << "  \"collect_latency\": " << (collect_latency ? "true" : "false")
     << ",\n";
  os << "  \"robust\": {\"gamma\": " << sweep.run.robust.gamma
     << ", \"realizations\": " << sweep.run.robust.realizations
     << ", \"confidence\": " << fmt_double(sweep.run.robust.confidence)
     << "},\n";
  os << "  \"epsilon\": {\"power_mw\": "
     << fmt_double(sweep.front.epsilon_power_mw)
     << ", \"pdr\": " << fmt_double(sweep.front.epsilon_pdr)
     << ", \"p95_s\": " << fmt_double(sweep.front.epsilon_p95_s) << "},\n";
  os << "  \"front\": [\n";
  for (std::size_t i = 0; i < res.front.size(); ++i) {
    emit_point(os, res.front[i], "    ");
    os << (i + 1 < res.front.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  os << "  \"rungs\": [\n";
  for (std::size_t i = 0; i < res.rungs.size(); ++i) {
    const hi::pareto::RungResult& rr = res.rungs[i];
    os << "    {\"pdr_min\": " << fmt_double(rr.pdr_min) << ", \"feasible\": "
       << (rr.feasible ? "true" : "false");
    if (rr.feasible) {
      os << ", \"best\": ";
      emit_point(os, rr.best, "");
    }
    os << "}" << (i + 1 < res.rungs.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  os << "  \"counters\": {\"evaluated\": " << res.evaluated
     << ", \"simulations\": " << res.simulations
     << ", \"store_hits\": " << res.store_hits
     << ", \"milp_rounds\": " << res.milp_rounds
     << ", \"milp_bnb_nodes\": " << res.milp_bnb_nodes
     << ", \"preloaded\": " << warm.preloaded << "},\n";
  os << "  \"complete\": " << (res.complete ? "true" : "false") << ",\n";
  os << "  \"wall_s\": " << fmt_double(res.wall_time_s) << "\n";
  os << "}\n";

  return hi::cli::write_report("hi_pareto", out_path, os.str());
}

int main(int argc, char** argv) {
  return hi::cli::run_main("hi_pareto", [&] { return run(argc, argv); });
}
