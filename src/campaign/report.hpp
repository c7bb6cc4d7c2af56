// hi-opt: hi::campaign — report types for single runs and fleets.
//
// CampaignReport is the classic single-process report (one row per
// cell, exactly the text/JSON hi_campaign has always printed — tests
// parse those strings, so the format is a compatibility surface).
// WorkerReport is the per-worker summary a fabric worker streams to
// the parent over its pipe (binary, ByteWriter-framed — a SIGKILLed
// worker simply leaves the pipe empty and is reported as such), and
// FleetReport aggregates workers + the shard merge into the fleet-level
// JSON the parent prints and persists as `<shard-dir>/fleet.json`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "store/store.hpp"

namespace hi::campaign {

/// One row of the single-process report.
struct CellReport {
  std::string scenario;
  double pdr_min = 0.0;
  bool skipped = false;  ///< served from a checkpoint, not re-run
  store::CellResult result;
  std::uint64_t store_hits = 0;  ///< store-served points (0 when skipped)
};

/// The single-process campaign outcome; print() preserves the legacy
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

/// One fabric worker's summary (pipe-transported; see the file comment).
struct WorkerReport {
  std::int32_t slot = -1;
  std::int32_t pid = 0;
  bool reported = false;      ///< a complete pipe report arrived
  std::int32_t exit_code = -1;   ///< WEXITSTATUS when exited, else -1
  std::int32_t term_signal = 0;  ///< WTERMSIG when signaled, else 0
  std::uint64_t rows_claimed = 0;
  std::uint64_t cells_done = 0;     ///< cells this worker simulated
  std::uint64_t cells_skipped = 0;  ///< cells served from checkpoints
  std::uint64_t fresh_simulations = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t steals = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t lease_expiries = 0;
  double wall_s = 0.0;

  /// Binary pipe codec (little-endian, ByteWriter framing).
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static bool decode(std::string_view bytes, WorkerReport* out);
};

/// The fleet-level outcome run_fleet() returns, prints, and persists.
struct FleetReport {
  std::string shard_dir;
  std::string merged_path;
  std::uint64_t run_id = 0;
  std::int32_t workers = 0;
  bool complete = false;  ///< every planned cell is checkpointed+merged
  std::uint64_t planned_cells = 0;
  std::uint64_t checkpointed_cells = 0;
  double wall_s = 0.0;
  std::vector<WorkerReport> worker_reports;
  store::EvalStore::MergeStats merge;

  /// Fleet totals (Σ over reported workers).
  [[nodiscard]] WorkerReport totals() const;
  /// Completed cells per wall-second, fleet-wide.
  [[nodiscard]] double throughput_cells_per_s() const;

  [[nodiscard]] std::string to_json() const;
  void print(std::ostream& os, bool json) const;
};

}  // namespace hi::campaign
