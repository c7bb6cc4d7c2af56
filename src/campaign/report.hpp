// hi-opt: hi::campaign — the campaign report.
//
// CampaignReport is the run_single() outcome: one row per cell, printed
// as the text/JSON hi_campaign emits (tests parse those strings, so the
// format is a compatibility surface).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "store/store.hpp"

namespace hi::campaign {

/// One row of the report.
struct CellReport {
  std::string scenario;
  double pdr_min = 0.0;
  bool skipped = false;  ///< served from a checkpoint, not re-run
  store::CellResult result;
  std::uint64_t store_hits = 0;  ///< store-served points (0 when skipped)
};

/// The campaign outcome; print() preserves the legacy
/// hi_campaign text output byte-for-byte.
struct CampaignReport {
  std::string store_path;
  store::RecoveryStats recovery;
  std::vector<CellReport> cells;
  std::uint64_t stored_evals = 0;  ///< store.eval_count() at the end
  std::uint64_t stored_cells = 0;  ///< store.cell_count() at the end

  [[nodiscard]] std::uint64_t total_fresh_simulations() const;
  [[nodiscard]] std::uint64_t total_store_hits() const;
  [[nodiscard]] std::uint64_t skipped_cells() const;

  void print(std::ostream& os, bool json) const;
};

}  // namespace hi::campaign
