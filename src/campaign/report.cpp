#include "campaign/report.hpp"

#include <ostream>
#include <sstream>

#include "store/json.hpp"
#include "store/serialize.hpp"

namespace hi::campaign {

namespace {

constexpr std::uint8_t kWorkerReportVersion = 1;

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
  // Compatibility surface: this is the report hi_campaign printed
  // before the fabric existed; tests parse these strings.  The JSON form
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

std::string WorkerReport::encode() const {
  store::ByteWriter w;
  w.put_u8(kWorkerReportVersion);
  w.put_i32(slot);
  w.put_i32(pid);
  w.put_u64(rows_claimed);
  w.put_u64(cells_done);
  w.put_u64(cells_skipped);
  w.put_u64(fresh_simulations);
  w.put_u64(store_hits);
  w.put_u64(steals);
  w.put_u64(recoveries);
  w.put_u64(lease_expiries);
  w.put_f64(wall_s);
  return w.take();
}

bool WorkerReport::decode(std::string_view bytes, WorkerReport* out) {
  store::ByteReader r(bytes);
  if (r.get_u8() != kWorkerReportVersion) {
    return false;
  }
  WorkerReport rep;
  rep.slot = r.get_i32();
  rep.pid = r.get_i32();
  rep.rows_claimed = r.get_u64();
  rep.cells_done = r.get_u64();
  rep.cells_skipped = r.get_u64();
  rep.fresh_simulations = r.get_u64();
  rep.store_hits = r.get_u64();
  rep.steals = r.get_u64();
  rep.recoveries = r.get_u64();
  rep.lease_expiries = r.get_u64();
  rep.wall_s = r.get_f64();
  if (!r.at_end()) {
    return false;
  }
  rep.reported = true;
  *out = rep;
  return true;
}

WorkerReport FleetReport::totals() const {
  WorkerReport t;
  t.reported = true;
  for (const WorkerReport& w : worker_reports) {
    if (!w.reported) {
      continue;  // a killed worker's numbers are simply absent
    }
    t.rows_claimed += w.rows_claimed;
    t.cells_done += w.cells_done;
    t.cells_skipped += w.cells_skipped;
    t.fresh_simulations += w.fresh_simulations;
    t.store_hits += w.store_hits;
    t.steals += w.steals;
    t.recoveries += w.recoveries;
    t.lease_expiries += w.lease_expiries;
  }
  return t;
}

double FleetReport::throughput_cells_per_s() const {
  if (wall_s <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(totals().cells_done) / wall_s;
}

std::string FleetReport::to_json() const {
  const WorkerReport t = totals();
  std::ostringstream os;
  os << "{\n  \"shard_dir\": " << json_string(shard_dir) << ",\n"
     << "  \"merged_store\": " << json_string(merged_path) << ",\n"
     << "  \"run_id\": " << run_id << ",\n"
     << "  \"workers\": " << workers << ",\n"
     << "  \"complete\": " << bool_str(complete) << ",\n"
     << "  \"planned_cells\": " << planned_cells << ",\n"
     << "  \"checkpointed_cells\": " << checkpointed_cells << ",\n"
     << "  \"wall_s\": " << fmt_double(wall_s) << ",\n"
     << "  \"throughput_cells_per_s\": "
     << fmt_double(throughput_cells_per_s()) << ",\n"
     << "  \"worker_reports\": [\n";
  for (std::size_t i = 0; i < worker_reports.size(); ++i) {
    const WorkerReport& w = worker_reports[i];
    os << "    {\"slot\": " << w.slot << ", \"pid\": " << w.pid
       << ", \"reported\": " << bool_str(w.reported)
       << ", \"exit_code\": " << w.exit_code
       << ", \"term_signal\": " << w.term_signal
       << ", \"rows_claimed\": " << w.rows_claimed
       << ", \"cells_done\": " << w.cells_done
       << ", \"cells_skipped\": " << w.cells_skipped
       << ", \"fresh_simulations\": " << w.fresh_simulations
       << ", \"store_hits\": " << w.store_hits
       << ", \"steals\": " << w.steals
       << ", \"recoveries\": " << w.recoveries
       << ", \"lease_expiries\": " << w.lease_expiries
       << ", \"wall_s\": " << fmt_double(w.wall_s) << "}"
       << (i + 1 < worker_reports.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"merge\": {\"evals\": " << merge.evals
     << ", \"cells\": " << merge.cells << ", \"frames\": " << merge.frames
     << ", \"duplicate_evals\": " << merge.duplicate_evals
     << ", \"superseded_cells\": " << merge.superseded_cells
     << ", \"clean\": " << bool_str(merge.clean()) << ", \"shards\": [\n";
  for (std::size_t i = 0; i < merge.shards.size(); ++i) {
    const store::EvalStore::ShardMergeStats& s = merge.shards[i];
    os << "    {\"path\": " << json_string(s.path)
       << ", \"present\": " << bool_str(s.present)
       << ", \"records\": " << s.records
       << ", \"evals_added\": " << s.evals_added
       << ", \"cells_added\": " << s.cells_added
       << ", \"duplicate_evals\": " << s.duplicate_evals
       << ", \"superseded_cells\": " << s.superseded_cells
       << ", \"corrupt_dropped\": " << s.corrupt_dropped
       << ", \"tail_truncated\": " << bool_str(s.tail_truncated)
       << ", \"desynced\": " << bool_str(s.desynced) << "}"
       << (i + 1 < merge.shards.size() ? "," : "") << "\n";
  }
  os << "  ]},\n"
     << "  \"totals\": {\"rows_claimed\": " << t.rows_claimed
     << ", \"cells_done\": " << t.cells_done
     << ", \"cells_skipped\": " << t.cells_skipped
     << ", \"fresh_simulations\": " << t.fresh_simulations
     << ", \"store_hits\": " << t.store_hits << ", \"steals\": " << t.steals
     << ", \"recoveries\": " << t.recoveries
     << ", \"lease_expiries\": " << t.lease_expiries << "}\n}\n";
  return os.str();
}

void FleetReport::print(std::ostream& os, bool json) const {
  if (json) {
    os << to_json();
    return;
  }
  const WorkerReport t = totals();
  for (const WorkerReport& w : worker_reports) {
    os << "worker " << w.slot << " (pid " << w.pid << "): ";
    if (!w.reported) {
      os << "no report";
      if (w.term_signal != 0) {
        os << " (killed by signal " << w.term_signal << ")";
      }
      os << "\n";
      continue;
    }
    os << w.rows_claimed << " rows, " << w.cells_done << " cells ("
       << w.cells_skipped << " skipped), " << w.fresh_simulations
       << " fresh sims, " << w.store_hits << " store hits";
    if (w.steals > 0 || w.recoveries > 0) {
      os << ", " << w.steals << " steals, " << w.recoveries << " recoveries";
    }
    os << "\n";
  }
  os << "fleet: " << workers << " workers, " << checkpointed_cells << "/"
     << planned_cells << " cells "
     << (complete ? "complete" : "INCOMPLETE (re-run with --resume)") << ", "
     << t.fresh_simulations << " fresh simulations, " << t.steals
     << " steals, " << t.recoveries << " recoveries; merged "
     << merge.evals << " evaluations / " << merge.cells
     << " checkpoints into " << merged_path
     << (merge.clean() ? "" : " [shard damage dropped; see fleet.json]")
     << "\n";
}

}  // namespace hi::campaign
