// hi-opt: exploration-result reporting.
//
// Serializes an ExplorationResult to CSV (one row per simulated design
// point — the raw data behind Fig. 3) and renders compact text
// summaries.  Kept out of the explorers so they stay pure.
#pragma once

#include <ostream>
#include <string>

#include "dse/exploration.hpp"

namespace hi::dse {

/// Writes `history` as CSV: label, topology mask, N, routing, MAC,
/// tx_dbm, analytic_power_mw, sim_pdr, sim_power_mw, sim_nlt_days.
void write_history_csv(const ExplorationResult& result, std::ostream& os);

/// One-paragraph human summary of an exploration outcome.  When the
/// result carries a non-empty obs::Snapshot (it always does for runs
/// through the unified explorers), the summary also reports cache hits
/// and — for Algorithm 1 — MILP branch-and-bound nodes and LP pivots.
[[nodiscard]] std::string summarize(const ExplorationResult& result,
                                    double pdr_min);

}  // namespace hi::dse
