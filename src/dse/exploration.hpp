// hi-opt: common result types shared by the four explorers
// (Algorithm 1, exhaustive search, simulated annealing, fast ILP).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "model/config.hpp"
#include "obs/snapshot.hpp"

namespace hi::dse {

/// One simulated design point (a row of Fig. 3's scatter).
///
/// Every run folds K channel realizations (DESIGN.md §13), so the
/// shared fields hold the robust metrics — sim_pdr is the WORST
/// realization's PDR and sim_power_mw the robust objective (worst power
/// + Γ-protection), analytic_power_mw the Γ-protected cell cost — plus
/// the PDR confidence interval.  A nominal run (K = 1, Γ = 0) records
/// the plain simulated values and the degenerate CI
/// pdr_lo == pdr_hi == sim_pdr.
struct CandidateRecord {
  model::NetworkConfig cfg;
  double analytic_power_mw = 0.0;  ///< Eq. (9) (+ Γ-protection)
  double sim_pdr = 0.0;            ///< Eq. (7), in [0,1]; worst realization
  double sim_power_mw = 0.0;       ///< worst lifetime-relevant node
  double sim_nlt_s = 0.0;          ///< Eq. (4); worst realization
  double pdr_lo = 0.0;             ///< PDR CI lower bound
  double pdr_hi = 0.0;             ///< PDR CI upper bound
};

/// Outcome of one exploration run.
struct ExplorationResult {
  bool feasible = false;  ///< a configuration meeting PDRmin was found
  model::NetworkConfig best;
  double best_power_mw = std::numeric_limits<double>::infinity();
  double best_pdr = 0.0;
  double best_nlt_s = 0.0;
  double best_p95_s = 0.0;  ///< worst-realization p95 (0 without latency)
  int iterations = 0;  ///< outer iterations (level walk: levels evaluated)
  std::uint64_t simulations = 0; ///< distinct design points simulated
  /// Branch-and-bound nodes spent by RunMILP (Algorithm 1 and fast ILP;
  /// 0 for the other explorers).  Populated from the run's
  /// `milp.bnb_nodes` counter, so it covers every solve the run made.
  std::uint64_t milp_bnb_nodes = 0;
  double wall_time_s = 0.0;
  std::vector<CandidateRecord> history;  ///< every simulated candidate
  // --- robustness summary (K = 1, Γ = 0 for a nominal run) ----------
  int realizations = 1;      ///< channel realizations per design point
  int gamma = 0;             ///< Γ budget the run protected against
  double best_pdr_lo = 0.0;  ///< incumbent's PDR CI lower bound
  double best_pdr_hi = 0.0;  ///< incumbent's PDR CI upper bound
  /// Γ-protection included in best_power_mw (0 at Γ = 0).  best_power_mw
  /// is the robust objective and best_pdr the incumbent's
  /// worst-realization PDR; a nominal run's CI is degenerate at best_pdr.
  double best_protection_mw = 0.0;
  /// Delta of every metric recorded during this run (dse.*, net.*,
  /// des.*, milp.*, exec.*; see DESIGN.md §8).  Always populated — when
  /// the caller supplies no registry the explorer uses a private one —
  /// and `metrics.counter("dse.simulations")` equals `simulations`
  /// exactly, at any thread count.
  obs::Snapshot metrics;
};

}  // namespace hi::dse
