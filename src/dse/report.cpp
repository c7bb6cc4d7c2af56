#include "dse/report.hpp"

#include <sstream>

#include "common/table.hpp"
#include "common/units.hpp"

namespace hi::dse {

void write_history_csv(const ExplorationResult& result, std::ostream& os) {
  os << "label,topology_mask,n_nodes,routing,mac,tx_dbm,analytic_power_mw,"
        "sim_pdr,sim_power_mw,sim_nlt_days\n";
  for (const CandidateRecord& r : result.history) {
    os << '"' << r.cfg.label() << "\"," << r.cfg.topology.mask() << ','
       << r.cfg.topology.count() << ','
       << model::to_string(r.cfg.routing.protocol) << ','
       << model::to_string(r.cfg.mac.protocol) << ','
       << fmt_double(r.cfg.radio.tx_dbm, 0) << ','
       << fmt_double(r.analytic_power_mw, 6) << ','
       << fmt_double(r.sim_pdr, 6) << ',' << fmt_double(r.sim_power_mw, 6)
       << ',' << fmt_double(seconds_to_days(r.sim_nlt_s), 4) << '\n';
  }
}

namespace {

/// Appends the robustness tail of a summary (Γ, K, the incumbent's PDR
/// confidence interval and protection charge) when the run used them.
/// A nominal run (K = 1, Γ = 0) prints nothing, keeping legacy output
/// byte-identical.
void append_robustness(const ExplorationResult& result,
                       std::ostringstream& oss) {
  if (result.realizations <= 1 && result.gamma == 0) {
    return;
  }
  oss << "; robust: Gamma=" << result.gamma << ", K=" << result.realizations;
  if (result.feasible) {
    oss << ", PDR CI +/-"
        << fmt_percent((result.best_pdr_hi - result.best_pdr_lo) / 2.0)
        << ", protection " << fmt_double(result.best_protection_mw, 3)
        << " mW";
  }
}

/// Appends the observability tail of a summary (cache hits, MILP work)
/// when the run's snapshot carries the relevant counters.
void append_metrics(const ExplorationResult& result, std::ostringstream& oss) {
  if (result.metrics.empty()) {
    return;
  }
  oss << "; " << result.metrics.counter("dse.cache_hits") << " cache hits";
  if (const std::uint64_t nodes = result.metrics.counter("milp.bnb_nodes");
      nodes > 0) {
    oss << ", " << nodes << " B&B nodes, "
        << result.metrics.counter("milp.lp_pivots") << " LP pivots";
  }
}

}  // namespace

std::string summarize(const ExplorationResult& result, double pdr_min) {
  std::ostringstream oss;
  if (!result.feasible) {
    oss << "infeasible at PDRmin = " << fmt_percent(pdr_min) << " after "
        << result.simulations << " simulations ("
        << result.iterations << " iterations)";
    append_robustness(result, oss);
    append_metrics(result, oss);
    return oss.str();
  }
  oss << result.best.label() << ": PDR " << fmt_percent(result.best_pdr)
      << ", lifetime " << fmt_double(seconds_to_days(result.best_nlt_s), 1)
      << " days, node power " << fmt_double(result.best_power_mw, 3)
      << " mW; found with " << result.simulations << " simulations in "
      << result.iterations << " iterations ("
      << fmt_double(result.wall_time_s, 1) << " s)";
  append_robustness(result, oss);
  append_metrics(result, oss);
  return oss.str();
}

}  // namespace hi::dse
