#include "campaign/report.hpp"

#include <ostream>

#include "store/json.hpp"

namespace hi::campaign {

namespace {

using store::detail::fmt_double;
using store::detail::json_string;

const char* bool_str(bool v) { return v ? "true" : "false"; }

}  // namespace

std::uint64_t CampaignReport::total_fresh_simulations() const {
  std::uint64_t n = 0;
  for (const CellReport& c : cells) {
    n += c.skipped ? 0 : c.result.simulations;
  }
  return n;
}

std::uint64_t CampaignReport::total_store_hits() const {
  std::uint64_t n = 0;
  for (const CellReport& c : cells) {
    n += c.store_hits;
  }
  return n;
}

std::uint64_t CampaignReport::skipped_cells() const {
  std::uint64_t n = 0;
  for (const CellReport& c : cells) {
    n += c.skipped ? 1 : 0;
  }
  return n;
}

void CampaignReport::print(std::ostream& os, bool json) const {
  // Compatibility surface: tests parse these strings.  The JSON form
  // prints doubles through store/json.hpp (shortest round-trip).
  if (json) {
    os << "{\n  \"store\": " << json_string(store_path) << ",\n"
       << "  \"recovery\": {\"records\": " << recovery.records
       << ", \"corrupt_dropped\": " << recovery.corrupt_dropped
       << ", \"tail_truncated\": " << bool_str(recovery.tail_truncated)
       << "},\n"
       << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellReport& c = cells[i];
      os << "    {\"scenario\": " << json_string(c.scenario)
         << ", \"pdr_min\": " << fmt_double(c.pdr_min)
         << ", \"skipped\": " << bool_str(c.skipped)
         << ", \"feasible\": " << bool_str(c.result.feasible)
         << ", \"best\": " << json_string(c.result.best.label())
         << ", \"best_power_mw\": " << fmt_double(c.result.best_power_mw)
         << ", \"best_pdr\": " << fmt_double(c.result.best_pdr)
         << ", \"simulations\": " << c.result.simulations
         << ", \"store_hits\": " << c.store_hits << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"totals\": {\"cells\": " << cells.size()
       << ", \"skipped\": " << skipped_cells()
       << ", \"fresh_simulations\": " << total_fresh_simulations()
       << ", \"store_hits\": " << total_store_hits()
       << ", \"stored_evals\": " << stored_evals
       << ", \"stored_cells\": " << stored_cells << "}\n}\n";
    return;
  }
  for (const CellReport& c : cells) {
    os << c.scenario << " @ PDRmin=" << c.pdr_min << ": ";
    if (c.skipped) {
      os << "checkpointed (skipped), ";
    }
    if (c.result.feasible) {
      os << c.result.best.label() << "  P=" << c.result.best_power_mw
         << " mW  PDR=" << c.result.best_pdr;
    } else {
      os << "infeasible";
    }
    os << "  [sims=" << c.result.simulations
       << " store_hits=" << c.store_hits << "]\n";
  }
  os << "campaign: " << cells.size() << " cells (" << skipped_cells()
     << " resumed), " << total_fresh_simulations() << " fresh simulations, "
     << total_store_hits() << " store hits; store holds " << stored_evals
     << " evaluations / " << stored_cells << " cell checkpoints\n";
}

}  // namespace hi::campaign
