// hi_pareto — Pareto frontier runner (DESIGN.md §14).  A thin argv shim
// over hi::pareto: sweep logic lives in src/pareto/, this binary parses
// flags, wires an optional warm hi::store, and emits the front as
// versioned `hi-pareto/v1` JSON.
//
//   hi_pareto [options]                 ladder sweep of the paper scenario
//   hi_pareto --mode exhaustive         full-space exact front
//   hi_pareto --store FILE ...          resumable: warm-start from FILE and
//                                       write every fresh simulation through;
//                                       a rerun re-simulates zero points
//   hi_pareto --dump-scenario           print the paper scenario as JSON
//
// Sharding across the campaign fabric: run disjoint --pdr-min slices
// into per-shard stores, `hi_campaign --merge DIR`, then rerun the full
// ladder against the merged store — every point is already paid for.
//
// Exit codes: 0 success, 2 usage error (bad flag or rejected input).
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/scenario_gen.hpp"
#include "cli_args.hpp"
#include "model/design_space.hpp"
#include "pareto/sweep.hpp"
#include "store/json.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"

namespace {

using hi::cli::parse_f64;
using hi::cli::parse_int;
using hi::cli::parse_u64;
using hi::store::detail::fmt_double;

bool parse_pdr_list(const std::string& list, std::vector<double>& out) {
  out.clear();
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    double v = 0.0;
    if (!parse_f64(item.c_str(), v) || v < 0.0 || v > 1.0) return false;
    out.push_back(v);
  }
  return !out.empty();
}

void emit_point(std::ostream& os, const hi::pareto::FrontPoint& p,
                const char* indent) {
  std::string label;
  hi::store::detail::put_json_string(label, p.cfg.label());
  os << indent << "{\"label\": " << label << ", "
     << "\"design_key\": " << p.cfg.design_key() << ", "
     << "\"power_mw\": " << fmt_double(p.power_mw) << ", "
     << "\"pdr\": " << fmt_double(p.pdr) << ", "
     << "\"p95_s\": " << fmt_double(p.p95_s) << ", "
     << "\"nlt_s\": " << fmt_double(p.nlt_s) << ", "
     << "\"pdr_lo\": " << fmt_double(p.pdr_lo) << ", "
     << "\"pdr_hi\": " << fmt_double(p.pdr_hi) << ", "
     << "\"protection_mw\": " << fmt_double(p.protection_mw) << "}";
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "       " << argv0 << " --dump-scenario\n"
      << "\n"
      << "options:\n"
      << "  --mode NAME       ladder | exhaustive (default ladder)\n"
      << "  --scenario FILE   scenario JSON (see --dump-scenario)\n"
      << "  --gen-seed N      generated check scenario instead of the paper's\n"
      << "  --pdr-min LIST    comma-separated PDRmin ladder\n"
      << "                    (default 0.5,0.6,0.7,0.8,0.9,0.95,0.99)\n"
      << "  --gamma N         Bertsimas-Sim protection budget (default 0)\n"
      << "  --realizations N  channel realizations per design (default 1)\n"
      << "  --confidence P    PDR confidence-interval level (default 0.95)\n"
      << "  --epsilon-power MW  epsilon-dominance knobs (default 0 = exact\n"
      << "  --epsilon-pdr P     strict dominance)\n"
      << "  --epsilon-p95 SEC\n"
      << "  --no-latency      skip latency collection (p95 objective = 0;\n"
      << "                    keeps pre-latency store fingerprints)\n"
      << "  --store FILE      warm-start + write-through evaluation store\n"
      << "  --out FILE        write the JSON report to FILE (default stdout)\n"
      << "  --threads N       worker threads (default 0 = serial)\n"
      << "  --tsim SEC        simulated seconds per run (default 600)\n"
      << "  --runs N          replications per design point (default 3)\n"
      << "  --seed N          experiment seed root (default 1)\n"
      << "  --max-rounds N    MILP round safety valve (default 10000)\n"
      << "  --kill-after-rounds N  SIGKILL self after N completed rounds\n"
      << "                    (crash-injection test hook; store is synced\n"
      << "                    after every round first)\n";
  return 2;
}

}  // namespace

int run(int argc, char** argv) {
  std::string mode = "ladder";
  std::string scenario_path;
  std::optional<std::uint64_t> gen_seed;
  std::string store_path;
  std::string out_path;
  bool dump_scenario = false;
  bool collect_latency = true;
  int kill_after_rounds = -1;
  hi::pareto::SweepOptions sweep;
  hi::dse::EvaluatorSettings settings;
  settings.sim.duration_s = 600.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t u = 0;
    double f = 0.0;
    const bool has_value = i + 1 < argc;
    if (arg == "--mode" && has_value) {
      mode = argv[++i];
      if (mode != "ladder" && mode != "exhaustive") return usage(argv[0]);
    } else if (arg == "--scenario" && has_value) {
      scenario_path = argv[++i];
    } else if (arg == "--gen-seed" && has_value && parse_u64(argv[++i], u)) {
      gen_seed = u;
    } else if (arg == "--pdr-min" && has_value) {
      if (!parse_pdr_list(argv[++i], sweep.pdr_ladder)) return usage(argv[0]);
    } else if (arg == "--gamma" && has_value &&
               parse_int(argv[++i], sweep.robust.gamma)) {
    } else if (arg == "--realizations" && has_value &&
               parse_int(argv[++i], sweep.robust.realizations, 1)) {
    } else if (arg == "--confidence" && has_value && parse_f64(argv[++i], f)) {
      sweep.robust.confidence = f;
    } else if (arg == "--epsilon-power" && has_value &&
               parse_f64(argv[++i], f) && f >= 0.0) {
      sweep.front.epsilon_power_mw = f;
    } else if (arg == "--epsilon-pdr" && has_value && parse_f64(argv[++i], f) &&
               f >= 0.0) {
      sweep.front.epsilon_pdr = f;
    } else if (arg == "--epsilon-p95" && has_value && parse_f64(argv[++i], f) &&
               f >= 0.0) {
      sweep.front.epsilon_p95_s = f;
    } else if (arg == "--no-latency") {
      collect_latency = false;
    } else if (arg == "--store" && has_value) {
      store_path = argv[++i];
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--threads" && has_value &&
               parse_int(argv[++i], sweep.threads)) {
    } else if (arg == "--tsim" && has_value && parse_f64(argv[++i], f) &&
               f > 0.0) {
      settings.sim.duration_s = f;
    } else if (arg == "--runs" && has_value &&
               parse_int(argv[++i], settings.runs, 1)) {
    } else if (arg == "--seed" && has_value && parse_u64(argv[++i], u)) {
      settings.sim.seed = u;
    } else if (arg == "--max-rounds" && has_value &&
               parse_int(argv[++i], sweep.max_rounds)) {
    } else if (arg == "--kill-after-rounds" && has_value &&
               parse_int(argv[++i], kill_after_rounds)) {
    } else if (arg == "--dump-scenario") {
      dump_scenario = true;
    } else {
      return usage(argv[0]);
    }
  }

  if (dump_scenario) {
    std::cout << hi::store::scenario_to_json(hi::model::Scenario{}) << "\n";
    return 0;
  }

  // ---- resolve the scenario ----------------------------------------------
  hi::model::Scenario scenario;  // default: the paper's Sec. 4.1 instance
  if (!scenario_path.empty() && gen_seed.has_value()) {
    std::cerr << "hi_pareto: --scenario and --gen-seed are exclusive\n";
    return 2;
  }
  if (!scenario_path.empty()) {
    std::ifstream in(scenario_path);
    if (!in) {
      std::cerr << "hi_pareto: cannot read " << scenario_path << "\n";
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const auto parsed = hi::store::scenario_from_json(buf.str());
    if (!parsed.has_value()) {
      std::cerr << "hi_pareto: invalid scenario JSON in " << scenario_path
                << "\n";
      return 2;
    }
    scenario = *parsed;
  } else if (gen_seed.has_value()) {
    const hi::check::ScenarioSpec spec = hi::check::make_scenario(*gen_seed);
    scenario = spec.scenario;
    const double tsim = settings.sim.duration_s;
    const std::uint64_t seed = settings.sim.seed;
    const int runs = settings.runs;
    settings = spec.settings;  // generated scenarios carry their settings
    settings.sim.duration_s = tsim;
    settings.sim.seed = seed;
    settings.runs = runs;
  }
  settings.sim.collect_latency = collect_latency;

  hi::dse::Evaluator eval(settings);

  // ---- optional durable store --------------------------------------------
  std::unique_ptr<hi::store::EvalStore> store;
  hi::store::WarmStartStats warm{};
  if (!store_path.empty()) {
    store = std::make_unique<hi::store::EvalStore>(store_path);
    warm = hi::store::warm_start(eval, *store, sweep.robust.realizations);
  }

  sweep.progress = [&](int rounds) {
    if (store != nullptr) {
      store->sync();  // a killed run never loses a completed round
    }
    if (kill_after_rounds >= 0 && rounds >= kill_after_rounds) {
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
  os << "  \"robust\": {\"gamma\": " << sweep.robust.gamma
     << ", \"realizations\": " << sweep.robust.realizations
     << ", \"confidence\": " << fmt_double(sweep.robust.confidence) << "},\n";
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

  if (out_path.empty()) {
    std::cout << os.str();
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "hi_pareto: cannot write " << out_path << "\n";
      return 2;
    }
    out << os.str();
  }
  return 0;
}

int main(int argc, char** argv) {
  return hi::cli::run_main("hi_pareto", [&] { return run(argc, argv); });
}
