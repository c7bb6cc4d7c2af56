#include "check/fuzz.hpp"

#include <exception>
#include <functional>
#include <ostream>
#include <sstream>
#include <utility>

#include "check/properties.hpp"
#include "check/scenario_gen.hpp"
#include "common/rng.hpp"

namespace hi::check {

namespace {

/// One named property over a scenario instance.  The closure must be
/// deterministic in the spec (all randomness derived from spec.seed) so
/// shrink re-runs and seed replay reproduce it exactly.
struct Property {
  const char* name;
  std::function<std::vector<std::string>(const ScenarioSpec&)> run;
};

std::vector<std::string> run_guarded(const Property& prop,
                                     const ScenarioSpec& spec) {
  try {
    return prop.run(spec);
  } catch (const std::exception& e) {
    // An oracle/solver throw inside the fuzz scope is itself a finding.
    return {std::string("unexpected exception: ") + e.what()};
  }
}

std::vector<std::string> solver_differentials(const ScenarioSpec& spec) {
  std::vector<std::string> out;
  Rng rng = Rng{spec.seed}.fork("check.fuzz.solvers");
  for (int i = 0; i < 3; ++i) {
    Rng gen = rng.fork(static_cast<std::uint64_t>(i));
    for (std::string& v : check_lp_against_oracle(random_bounded_lp(gen))) {
      out.push_back("lp[" + std::to_string(i) + "]: " + std::move(v));
    }
  }
  for (int i = 0; i < 2; ++i) {
    Rng gen = rng.fork(static_cast<std::uint64_t>(100 + i));
    for (std::string& v : check_milp_against_oracle(random_small_milp(gen))) {
      out.push_back("milp[" + std::to_string(i) + "]: " + std::move(v));
    }
  }
  for (int i = 0; i < 2; ++i) {
    Rng gen = rng.fork(static_cast<std::uint64_t>(300 + i));
    const milp::Model m = random_small_milp(gen);
    for (std::string& v : check_milp_warm_against_oracle(m, gen)) {
      out.push_back("milp_warm[" + std::to_string(i) + "]: " + std::move(v));
    }
  }
  for (int i = 0; i < 3; ++i) {
    Rng gen = rng.fork(static_cast<std::uint64_t>(200 + i));
    const lp::Problem p = random_bounded_lp(gen);
    for (std::string& v : check_warm_start_against_oracle(p, gen)) {
      out.push_back("warm[" + std::to_string(i) + "]: " + std::move(v));
    }
  }
  return out;
}

std::vector<std::string> dse_metamorphic(const ScenarioSpec& spec) {
  std::vector<std::string> out;
  dse::Evaluator eval(spec.settings);
  out = check_alg1_matches_exhaustive(spec.scenario, eval, 0.8);
  eval.reset_counters();
  // The sweep rides the exhaustive run's cache, so the extra targets are
  // nearly free.
  std::vector<std::string> mono =
      check_pdrmin_monotone(spec.scenario, eval, {0.3, 0.6, 0.9});
  out.insert(out.end(), mono.begin(), mono.end());
  return out;
}

std::string replay_command(std::uint64_t seed, int shrink, int gamma,
                           int realizations) {
  std::ostringstream oss;
  oss << "fuzz_dse --seed " << seed << " --shrink " << shrink
      << " --scenarios 1 --gamma " << gamma << " --realizations "
      << realizations;
  return oss.str();
}

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& opt) {
  FuzzReport report;
  const dse::RobustnessOptions robust{opt.gamma, opt.realizations, 0.95};
  const std::vector<Property> every_seed = {
      {"solver_differentials", solver_differentials},
      {"milp_levels",
       [&robust](const ScenarioSpec& s) {
         std::vector<std::string> out = check_milp_levels(s.scenario, 0);
         std::vector<std::string> prot =
             check_milp_levels(s.scenario, robust.gamma);
         out.insert(out.end(), prot.begin(), prot.end());
         return out;
       }},
      {"sim_invariants",
       [](const ScenarioSpec& s) { return check_sim_invariants(s, 2); }},
      {"robust_collapse",
       [](const ScenarioSpec& s) { return check_robust_collapse(s); }},
      {"crowd_collapse",
       [](const ScenarioSpec& s) { return check_crowd_collapse(s); }},
      {"alg1_vs_ladder",
       [&robust](const ScenarioSpec& s) {
         dse::Evaluator eval(s.settings);
         std::vector<std::string> out;
         for (const auto& r : {dse::RobustnessOptions{}, robust}) {
           std::vector<std::string> v = check_alg1_matches_ladder(
               s.scenario, eval, {0.3, 0.6, 0.8, 0.9}, r,
               dse::TerminationBound::kSoundFloor);
           out.insert(out.end(), v.begin(), v.end());
         }
         return out;
       }},
      {"fade_tape",
       [](const ScenarioSpec& s) {
         Rng rng = Rng{s.seed}.fork("check.fade_tape");
         std::vector<std::string> out;
         for (int i = 0; i < 4 && out.empty(); ++i) out = check_fade_tape(rng);
         return out;
       }},
      {"decay_table",
       [](const ScenarioSpec& s) {
         Rng rng = Rng{s.seed}.fork("check.decay_table");
         std::vector<std::string> out;
         for (int i = 0; i < 4 && out.empty(); ++i) {
           out = check_decay_table(rng);
         }
         return out;
       }},
  };
  const std::vector<Property> rotated = {
      {"alg1_vs_exhaustive+pdrmin_monotone", dse_metamorphic},
      {"thread_determinism+tape_cache",
       [](const ScenarioSpec& s) {
         std::vector<std::string> out = check_thread_determinism(s, 4);
         std::vector<std::string> tapes = check_tape_cache_invisible(s, 4);
         out.insert(out.end(), tapes.begin(), tapes.end());
         return out;
       }},
      {"robust_alg1_vs_exhaustive",
       [&robust](const ScenarioSpec& s) {
         dse::Evaluator eval(s.settings);
         return check_robust_alg1_matches_exhaustive(s.scenario, eval, 0.8,
                                                     robust);
       }},
      {"robust_monotone+thread_determinism+tape_cache",
       [&robust](const ScenarioSpec& s) {
         std::vector<std::string> out = check_robust_monotone(
             s, {0, robust.gamma}, {1, robust.realizations});
         std::vector<std::string> det =
             check_robust_thread_determinism(s, 4, robust);
         out.insert(out.end(), det.begin(), det.end());
         std::vector<std::string> tapes =
             check_tape_cache_invisible(s, 4, robust);
         out.insert(out.end(), tapes.begin(), tapes.end());
         return out;
       }},
  };

  for (int i = 0; i < opt.scenarios; ++i) {
    const std::uint64_t seed = opt.seed + static_cast<std::uint64_t>(i);
    const ScenarioSpec spec = make_scenario(seed, opt.shrink_level);
    if (opt.verbose && opt.out != nullptr) {
      *opt.out << "[fuzz] " << spec.summary() << "\n";
    }
    std::vector<Property> battery = every_seed;
    battery.push_back(rotated[static_cast<std::size_t>(i) % rotated.size()]);
    for (const Property& prop : battery) {
      ++report.properties_checked;
      std::vector<std::string> violations = run_guarded(prop, spec);
      if (violations.empty()) continue;

      // Shrink: walk deeper levels while the property still fails; the
      // deepest failing level is the smallest reproducer this generator
      // can offer.
      FuzzFailure failure;
      failure.seed = seed;
      failure.shrink_level = spec.shrink_level;
      failure.property = prop.name;
      failure.violations = std::move(violations);
      failure.scenario_summary = spec.summary();
      for (int level = spec.shrink_level + 1; level <= kMaxShrink; ++level) {
        const ScenarioSpec smaller = make_scenario(seed, level);
        std::vector<std::string> again = run_guarded(prop, smaller);
        if (again.empty()) break;
        failure.shrink_level = level;
        failure.violations = std::move(again);
        failure.scenario_summary = smaller.summary();
      }
      failure.replay = replay_command(seed, failure.shrink_level, opt.gamma,
                                      opt.realizations);
      if (opt.out != nullptr) {
        *opt.out << "[fuzz] FAIL " << failure.property << " at seed " << seed
                 << "\n       " << failure.scenario_summary << "\n";
        for (const std::string& v : failure.violations) {
          *opt.out << "       violation: " << v << "\n";
        }
        *opt.out << "       replay: " << failure.replay << "\n";
      }
      report.failures.push_back(std::move(failure));
    }
    ++report.scenarios_run;
  }
  if (opt.out != nullptr) {
    *opt.out << "[fuzz] " << report.scenarios_run << " scenarios, "
             << report.properties_checked << " properties, "
             << report.failures.size() << " failures\n";
  }
  return report;
}

}  // namespace hi::check
