// hi_crowd — crowd (multi-body) simulation runner (DESIGN.md §15).  A
// thin argv shim over hi::crowd: the simulation and sweep logic live in
// src/crowd/, this binary parses flags, wires an optional durable
// hi::store (a rerun after a crash re-simulates zero points), and emits
// the sweep as versioned `hi-crowd/v1` JSON.  `hi_crowd --bogus` prints
// the flags.
//
// Exit codes: 0 success, 2 usage error (bad flag or rejected input).
#include <csignal>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "crowd/crowd.hpp"
#include "net/network.hpp"
#include "store/crowd_codec.hpp"
#include "store/json.hpp"
#include "store/store.hpp"

int run(int argc, char** argv) {
  using hi::store::detail::fmt_double;
  namespace cli = hi::cli;
  namespace flags = hi::cli::flags;
  int bodies = 1;
  bool sweep_mode = false;
  bool dump_scenario = false;
  bool resume = false;
  std::vector<int> list;
  std::string scenario_path, store_path, out_path;
  int kill_after_points = -1;
  // Default: the paper's full 10-node star network on a 1 m grid.
  hi::model::CrowdScenario base;
  base.cfg.topology = hi::model::Topology::from_mask(0x3FF);
  hi::net::SimParams sim;
  sim.duration_s = 60.0;
  hi::crowd::SweepOptions opt;

  cli::FlagTable table({"[options]", "--dump-scenario"});
  table.section("options")
      .add({"--bodies", "M", "crowd size",
            cli::number(bodies, cli::in_range(1, 64))})
      .add({"--sweep", "", "sweep M = 1..bodies instead of one point",
            cli::on(sweep_mode)})
      .add({"--list", "M1,M2,...", "explicit body counts (overrides --sweep)",
            cli::list(list, cli::in_range(1, 64))})
      .add({"--spacing", "M", "grid pitch in meters",
            cli::number<double>(base.spacing_m, cli::positive)})
      .add({"--cols", "N", "grid columns, 0 = square-ish",
            cli::number(base.cols, cli::at_least(0))})
      .add(flags::scenario(cli::text(scenario_path)))
      .add(flags::store(store_path))
      .add({"--resume", "", "require --store (a warm store serves\n"
                            "completed points as hits)",
            cli::on(resume)})
      .add(flags::out(out_path))
      .add(flags::threads(opt.threads))
      .add(flags::tsim(sim.duration_s))
      .add(flags::runs(opt.runs))
      .add(flags::seed(sim.seed))
      .add({"--kill-after-points", "N",
            "SIGKILL self after N completed points, the\n"
            "store synced first (crash test hook)",
            cli::number(kill_after_points, cli::at_least(0))})
      .add(flags::dump_scenario(dump_scenario));
  if (!table.parse(argc, argv)) {
    return table.usage();
  }
  if (resume && store_path.empty()) {
    std::cerr << "hi_crowd: --resume requires --store\n";
    return 2;
  }

  // ---- resolve the scenario ----------------------------------------------
  if (!scenario_path.empty()) {
    const auto text = hi::store::detail::read_file(scenario_path);
    if (!text.has_value()) {
      std::cerr << "hi_crowd: cannot read " << scenario_path << "\n";
      return 2;
    }
    std::string err;
    const auto parsed = hi::store::crowd_scenario_from_json(*text, &err);
    if (!parsed.has_value()) {
      std::cerr << "hi_crowd: invalid crowd scenario JSON in " << scenario_path
                << ": " << err << "\n";
      return 2;
    }
    base = *parsed;
    if (base.bodies > bodies) bodies = base.bodies;
  }
  base.bodies = bodies;
  if (dump_scenario) {
    std::cout << hi::store::crowd_scenario_to_json(base);
    return 0;
  }

  if (!list.empty()) {
    opt.bodies = list;
  } else if (sweep_mode) {
    for (int m = 1; m <= bodies; ++m) opt.bodies.push_back(m);
  } else {
    opt.bodies.push_back(bodies);
  }

  // ---- optional durable store --------------------------------------------
  // Reject what every point would reject before the store file exists.
  hi::net::require_valid(sim);
  std::unique_ptr<hi::store::EvalStore> store;
  if (!store_path.empty()) {
    store = std::make_unique<hi::store::EvalStore>(store_path);
    opt.store = store.get();
  }

  int completed = 0;
  opt.progress = [&](const hi::crowd::SweepPoint&) {
    ++completed;
    if (store != nullptr) {
      store->sync();  // a killed run never loses a completed point
    }
    if (kill_after_points >= 0 && completed >= kill_after_points) {
      std::raise(SIGKILL);
    }
  };

  const hi::crowd::SweepResult res = hi::crowd::sweep(base, sim, opt);

  // ---- hi-crowd/v1 report ------------------------------------------------
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"hi-crowd/v1\",\n";
  os << "  \"scenario_fp\": \"" << hi::store::crowd_fingerprint(base).hex()
     << "\",\n";
  os << "  \"settings\": {\"tsim_s\": " << fmt_double(sim.duration_s)
     << ", \"runs\": " << opt.runs << ", \"seed\": " << sim.seed
     << ", \"spacing_m\": " << fmt_double(base.spacing_m)
     << ", \"capture_db\": " << fmt_double(sim.capture_db) << "},\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < res.points.size(); ++i) {
    const hi::crowd::SweepPoint& p = res.points[i];
    const hi::net::SimResult& d = p.eval.detail;
    os << "    {\"bodies\": " << p.bodies
       << ", \"pdr\": " << fmt_double(p.eval.pdr)
       << ", \"min_body_pdr\": " << fmt_double(d.crowd.min_body_pdr)
       << ", \"worst_power_mw\": " << fmt_double(p.eval.power_mw)
       << ", \"mean_power_mw\": " << fmt_double(d.mean_power_mw)
       << ", \"nlt_s\": " << fmt_double(p.eval.nlt_s)
       << ", \"cross_offered\": " << d.crowd.cross_offered
       << ", \"cross_below_sensitivity\": " << d.crowd.cross_below_sensitivity
       << ", \"foreign_heard\": " << d.crowd.foreign_heard
       << ", \"foreign_decoded\": " << d.crowd.foreign_decoded
       << ", \"from_store\": " << (p.from_store ? "true" : "false")
       << ", \"per_body\": [";
    for (std::size_t b = 0; b < d.nodes.size(); ++b) {
      if (b > 0) os << ", ";
      os << "{\"body\": " << d.nodes[b].location
         << ", \"pdr\": " << fmt_double(d.nodes[b].pdr)
         << ", \"worst_power_mw\": " << fmt_double(d.nodes[b].power_mw)
         << "}";
    }
    os << "]}" << (i + 1 < res.points.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  os << "  \"store\": {\"store_hits\": " << res.store_hits
     << ", \"simulations\": " << res.simulations << "},\n";
  os << "  \"complete\": true\n";
  os << "}\n";

  return hi::cli::write_report("hi_crowd", out_path, os.str());
}

int main(int argc, char** argv) {
  return hi::cli::run_main("hi_crowd", [&] { return run(argc, argv); });
}
