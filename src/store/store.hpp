// hi-opt: hi::store — the durable evaluation store.
//
// Algorithm 1's entire economy is "never pay for the same simulation
// twice"; the in-memory Evaluator cache enforces that within a process,
// and EvalStore extends it across processes and crashes.  Two record
// kinds live in one append-only RecordLog (record_log.hpp):
//
//   evaluation   (settings fingerprint, design point) → Evaluation.
//                Keyed by the SHA-256 settings_fingerprint, so results
//                only flow between evaluators with identical Tsim /
//                seeds / replication counts / channel; the canonical
//                config rides along and is re-verified on every hit, so
//                a 64-bit design_key() collision fails loudly instead of
//                aliasing two design points across processes.
//
//   cell         one completed campaign cell (scenario × PDRmin ×
//                explorer × options) → its ExplorationResult summary.
//                hi_campaign checkpoints each finished cell and
//                `--resume` skips checkpointed cells with zero
//                re-simulation.
//
// The store keeps every decoded record in memory (a design space is
// thousands of points, not millions) plus an offset index into the log;
// compact() is the offline pass that rewrites a log dropping superseded
// duplicates and corrupt frames.  All member functions are thread-safe.
//
// Warm start (warm_start()): preload every matching evaluation into a
// dse::Evaluator and install a write-through sink so fresh simulations
// are appended as they happen.  Contracts preserved (and tested by
// hi::check's warm-start determinism property):
//   * bit-identical to cold — a warmed run returns exactly the optima,
//     history, and per-layer counters a cold run would, because stored
//     Evaluations are exact bit copies of prior results under the same
//     settings fingerprint;
//   * reference stability — preloading inserts into the evaluator's
//     node-based cache before the run, and write-through never touches
//     the cache;
//   * honest accounting — store-served points count in dse.store_hits,
//     not dse.simulations, so a warmed run reports
//     simulations == (cold total − store hits).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>

#include "dse/evaluator.hpp"
#include "store/record_log.hpp"
#include "store/serialize.hpp"

namespace hi::store {

/// Store configuration.
struct StoreOptions {
  bool read_only = false;
  FsyncPolicy fsync = FsyncPolicy::kCheckpoint;
  /// Names the channel factory for the settings fingerprint (a
  /// std::function cannot be hashed).  Callers evaluating under a
  /// non-default channel MUST set a distinct tag, or stored results
  /// would leak between incompatible channels.
  std::string channel_tag = "default";
  /// Nullable; receives store.* counters (see DESIGN.md §8/§10).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Identity of one campaign cell; every field participates in the
/// checkpoint key, so changing any sweep knob re-runs the cell.
struct CellKey {
  Digest scenario_fp;  ///< scenario_fingerprint()
  Digest settings_fp;  ///< settings_fingerprint()
  Digest options_fp;   ///< options_fingerprint()
  double pdr_min = 0.9;

  friend bool operator==(const CellKey&, const CellKey&) = default;
  friend auto operator<=>(const CellKey& a, const CellKey& b) {
    return std::tie(a.scenario_fp, a.settings_fp, a.options_fp, a.pdr_min) <=>
           std::tie(b.scenario_fp, b.settings_fp, b.options_fp, b.pdr_min);
  }
};

/// The durable summary of a completed cell (ExplorationResult minus the
/// history, which the evaluation records already carry).
struct CellResult {
  bool feasible = false;
  model::NetworkConfig best;
  double best_power_mw = 0.0;
  double best_pdr = 0.0;
  double best_nlt_s = 0.0;
  std::uint64_t simulations = 0;  ///< fresh simulations the cell paid for
  std::int32_t iterations = 0;
};

/// See file comment.
class EvalStore {
 public:
  /// Opens (write mode creates) and recovers the log at `path`.
  explicit EvalStore(std::string path, StoreOptions opt = {});

  /// What recovery found at open; clean() means no repair was needed.
  [[nodiscard]] const RecoveryStats& recovery() const { return recovery_; }
  [[nodiscard]] const std::string& channel_tag() const {
    return opt_.channel_tag;
  }
  [[nodiscard]] const std::string& path() const { return log_->path(); }

  /// The stored evaluation for (fp, cfg), or null.  A design_key match
  /// with a different canonical config fails loudly (collision guard).
  [[nodiscard]] const dse::Evaluation* find(const Digest& settings_fp,
                                            const model::NetworkConfig& cfg)
      const;

  /// Appends one evaluation record (idempotent: an existing identical
  /// key is left alone and not re-appended).  Returns true if appended.
  bool put(const Digest& settings_fp, const model::NetworkConfig& cfg,
           const dse::Evaluation& ev);

  /// Number of evaluation records held (across all fingerprints).
  [[nodiscard]] std::size_t eval_count() const;

  [[nodiscard]] std::optional<CellResult> find_cell(const CellKey& key) const;

  /// Appends (or supersedes) a cell checkpoint.  Under
  /// FsyncPolicy::kCheckpoint and kAlways the record — and every
  /// evaluation appended before it — is fsynced before returning, so a
  /// cell marked complete never outlives its evaluations on disk.
  void put_cell(const CellKey& key, const CellResult& result);

  [[nodiscard]] std::size_t cell_count() const;

  /// Blocks until every append so far is on stable storage.
  void sync();

  /// Preloads every evaluation stored under `settings_fp` into the
  /// evaluator (dse::Evaluator::preload) and returns how many were
  /// inserted.  Prefer warm_start(), which also wires write-through.
  std::size_t preload_into(dse::Evaluator& eval,
                           const Digest& settings_fp) const;

  /// Offline compaction outcome.
  struct CompactStats {
    std::uint64_t records_before = 0;  ///< valid records in the old log
    std::uint64_t records_after = 0;   ///< records in the rewritten log
    std::uint64_t bytes_before = 0;
    std::uint64_t bytes_after = 0;
  };

  /// Rewrites the log at `path` keeping the latest record per key —
  /// superseded duplicates, skipped-corrupt frames, and any recovered
  /// tail damage are gone afterwards.  Offline: no EvalStore may have
  /// the file open.  Crash-safe (writes a temp file, fsyncs, renames).
  static CompactStats compact(const std::string& path);

  /// Read-only integrity scan: recovery stats for the log as it is on
  /// disk, file untouched.  clean() == byte-valid store.
  static RecoveryStats audit(const std::string& path);

 private:
  struct StoredEval {
    model::NetworkConfig cfg;
    dse::Evaluation ev;
  };
  /// Map key for evaluation records.  The design_key narrows the search;
  /// the canonical config in the mapped value is the ground truth.
  using EvalKey = std::pair<Digest, std::uint64_t>;

  StoreOptions opt_;
  std::unique_ptr<RecordLog> log_;
  RecoveryStats recovery_;  ///< log recovery + payload-decode failures
  // Decoded records + the offset index (value holds the log offset of
  // the record currently serving each key; compaction keeps the latest).
  std::map<EvalKey, std::pair<StoredEval, std::uint64_t>> evals_;
  std::map<CellKey, std::pair<CellResult, std::uint64_t>> cells_;
  mutable std::mutex mu_;
};

/// Outcome of warm_start().
struct WarmStartStats {
  Digest settings_fp;          ///< fingerprint the ROOT evaluator matched on
  std::size_t preloaded = 0;   ///< evaluations copied in, all realizations
  int realizations = 1;        ///< evaluators wired (root + children)
};

/// Preloads `eval` from `store` and installs a write-through sink; see
/// the file comment for the preserved contracts.  The store must outlive
/// the evaluator's use of the sink (i.e. the evaluator, in practice).
WarmStartStats warm_start(dse::Evaluator& eval, EvalStore& store);

/// Multi-realization warm start: additionally wires realizations
/// 1..realizations-1 of `eval` (see dse::Evaluator::realization), each
/// preloaded and write-through under its OWN settings fingerprint — a
/// realization differs from the root only by sim.channel_seed, which
/// settings_fingerprint covers, so per-(design, seed) records land in
/// distinct rows and robust campaigns resume with zero re-simulation.
WarmStartStats warm_start(dse::Evaluator& eval, EvalStore& store,
                          int realizations);

}  // namespace hi::store
