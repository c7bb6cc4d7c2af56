// hi_crowd — crowd (multi-body) simulation runner (DESIGN.md §15).  A
// thin argv shim over hi::crowd: the simulation and sweep logic live in
// src/crowd/, this binary parses flags, wires an optional durable
// hi::store, and emits the sweep as versioned `hi-crowd/v1` JSON.
//
//   hi_crowd --bodies 8 --sweep         PDR vs crowd size, M = 1..8
//   hi_crowd --bodies 4                 one point, M = 4
//   hi_crowd --list 1,2,4,8             explicit body-count list
//   hi_crowd --store FILE --resume ...  durable: completed points are
//                                       served from FILE; a rerun after a
//                                       crash re-simulates zero points
//   hi_crowd --dump-scenario            print the default crowd scenario
//
// Exit codes: 0 success, 2 usage error (bad flag or rejected input).
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "crowd/crowd.hpp"
#include "store/crowd_codec.hpp"
#include "store/json.hpp"
#include "store/store.hpp"

namespace {

using hi::cli::parse_f64;
using hi::cli::parse_int;
using hi::cli::parse_u64;
using hi::store::detail::fmt_double;

bool parse_int_list(const std::string& list, std::vector<int>& out) {
  out.clear();
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    int v = 0;
    if (!parse_int(item.c_str(), v, 1, 64)) return false;
    out.push_back(v);
  }
  return !out.empty();
}

/// The default crowd scenario: the paper's full 10-node star network
/// replicated on a grid, one meter apart.
hi::model::CrowdScenario default_scenario() {
  hi::model::CrowdScenario sc;
  sc.cfg.topology = hi::model::Topology::from_mask(0x3FF);
  return sc;
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "       " << argv0 << " --dump-scenario\n"
      << "\n"
      << "options:\n"
      << "  --bodies M        crowd size (default 1)\n"
      << "  --sweep           sweep M = 1..bodies instead of one point\n"
      << "  --list M1,M2,...  explicit body-count list (overrides --sweep)\n"
      << "  --spacing M       grid pitch in meters (default 1)\n"
      << "  --cols N          grid columns (default 0 = square-ish)\n"
      << "  --scenario FILE   crowd scenario JSON (see --dump-scenario)\n"
      << "  --store FILE      durable evaluation store (write-through)\n"
      << "  --resume          require --store; assert-friendly alias — a\n"
      << "                    warm store serves completed points as hits\n"
      << "  --out FILE        write the JSON report to FILE (default stdout)\n"
      << "  --threads N       worker threads (default 0 = serial)\n"
      << "  --tsim SEC        simulated seconds per run (default 60)\n"
      << "  --runs N          replications per point (default 3)\n"
      << "  --seed N          experiment seed root (default 1)\n"
      << "  --kill-after-points N  SIGKILL self after N completed points\n"
      << "                    (crash-injection test hook; the store is\n"
      << "                    synced after every point first)\n";
  return 2;
}

}  // namespace

int run(int argc, char** argv) {
  int bodies = 1;
  bool sweep_mode = false;
  bool dump_scenario = false;
  bool resume = false;
  std::vector<int> list;
  std::string scenario_path, store_path, out_path;
  int kill_after_points = -1;
  hi::model::CrowdScenario base = default_scenario();
  hi::net::SimParams sim;
  sim.duration_s = 60.0;
  hi::crowd::SweepOptions opt;
  opt.runs = 3;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t u = 0;
    double f = 0.0;
    const bool has_value = i + 1 < argc;
    if (arg == "--bodies" && has_value && parse_int(argv[++i], bodies, 1, 64)) {
    } else if (arg == "--sweep") {
      sweep_mode = true;
    } else if (arg == "--list" && has_value) {
      if (!parse_int_list(argv[++i], list)) return usage(argv[0]);
    } else if (arg == "--spacing" && has_value && parse_f64(argv[++i], f) &&
               f > 0.0) {
      base.spacing_m = f;
    } else if (arg == "--cols" && has_value && parse_int(argv[++i], base.cols)) {
    } else if (arg == "--scenario" && has_value) {
      scenario_path = argv[++i];
    } else if (arg == "--store" && has_value) {
      store_path = argv[++i];
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--threads" && has_value &&
               parse_int(argv[++i], opt.threads)) {
    } else if (arg == "--tsim" && has_value && parse_f64(argv[++i], f) &&
               f > 0.0) {
      sim.duration_s = f;
    } else if (arg == "--runs" && has_value &&
               parse_int(argv[++i], opt.runs, 1)) {
    } else if (arg == "--seed" && has_value && parse_u64(argv[++i], u)) {
      sim.seed = u;
    } else if (arg == "--kill-after-points" && has_value &&
               parse_int(argv[++i], kill_after_points)) {
    } else if (arg == "--dump-scenario") {
      dump_scenario = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (resume && store_path.empty()) {
    std::cerr << "hi_crowd: --resume requires --store\n";
    return 2;
  }

  // ---- resolve the scenario ----------------------------------------------
  if (!scenario_path.empty()) {
    std::ifstream in(scenario_path);
    if (!in) {
      std::cerr << "hi_crowd: cannot read " << scenario_path << "\n";
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    const auto parsed = hi::store::crowd_scenario_from_json(buf.str(), &err);
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

  if (out_path.empty()) {
    std::cout << os.str();
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "hi_crowd: cannot write " << out_path << "\n";
      return 2;
    }
    out << os.str();
  }
  return 0;
}

int main(int argc, char** argv) {
  return hi::cli::run_main("hi_crowd", [&] { return run(argc, argv); });
}
