// hi-opt: hi::campaign — the campaign plan.
//
// A campaign is a grid of (scenario × PDRmin) cells swept by one
// explorer against one durable evaluation store (see runner.hpp).
// CampaignPlan is the fully-resolved, immutable description of that
// grid: every scenario row is loaded/generated up front and every
// fingerprint and CellKey is precomputed, so a later --resume derives
// the exact same cell keys from the exact same flags.  Settings are
// fingerprinted under the default store channel tag
// (store::StoreOptions{}.channel_tag), the tag run_single() opens its
// store with.
//
// The plan deliberately carries no I/O handles and no metrics: it is a
// value the CLI builds once and hands to run_single(), and that tests
// build directly without spawning a process.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dse/evaluator.hpp"
#include "dse/explorer.hpp"
#include "model/design_space.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"

namespace hi::campaign {

/// Everything that determines the grid.  Field-for-field this mirrors
/// the hi_campaign CLI's campaign flags; see PlanSpec defaults for the
/// CLI defaults.
struct PlanSpec {
  std::vector<std::string> scenario_files;  ///< scenario JSON paths
  std::vector<std::uint64_t> gen_seeds;     ///< hi::check generated rows
  std::vector<double> pdr_grid{0.5, 0.7, 0.9};
  dse::ExplorerKind explorer = dse::ExplorerKind::kAlgorithm1;
  int budget = -1;   ///< explorer outer-iteration budget (-1 = default)
  int threads = 0;   ///< worker threads per cell (0 = serial)
  double tsim_s = 600.0;  ///< Tsim for JSON-file scenarios
  int runs = 3;           ///< replications per design point
  std::uint64_t seed = 1; ///< experiment seed root
  /// Robust-evaluation knobs for every cell.  The default (inactive)
  /// keeps plans, fingerprints, and explorer behavior bit-identical to
  /// pre-robust campaigns; an active value flows into the cell options
  /// fingerprint, so robust and nominal results never share a CellKey.
  dse::RobustnessOptions robust{};
};

/// One scenario row of the grid, with its identity precomputed.
struct PlanRow {
  std::string name;  ///< report label (file path, "gen-N", "paper-4.1")
  model::Scenario scenario;
  dse::EvaluatorSettings settings;
  store::Digest scenario_fp;  ///< scenario_fingerprint(scenario)
  store::Digest settings_fp;  ///< under the default channel tag
  /// One CellKey per pdr_grid entry, in grid order.  These are the
  /// checkpoint keys run_single() writes and --resume looks up.
  std::vector<store::CellKey> cells;
};

/// See file comment.
class CampaignPlan {
 public:
  /// Resolves `spec` into a plan: loads every scenario file, generates
  /// every gen-seed row, and falls back to the paper's Sec. 4.1
  /// scenario when the spec names no rows (the CLI's behavior).
  /// Returns nullopt with `*error` set on an unreadable/invalid file.
  [[nodiscard]] static std::optional<CampaignPlan> build(const PlanSpec& spec,
                                                         std::string* error);

  [[nodiscard]] const PlanSpec& spec() const { return spec_; }
  [[nodiscard]] const std::vector<PlanRow>& rows() const { return rows_; }
  [[nodiscard]] std::size_t cell_count() const {
    return rows_.size() * spec_.pdr_grid.size();
  }

  /// The canonical ExplorationOptions for one cell (metrics/progress
  /// left unset — the runner wires those).  Fingerprint-identical to
  /// what options_fingerprint() was computed over.
  [[nodiscard]] dse::ExplorationOptions cell_options(double pdr_min) const;

  /// The explorer the whole grid runs under.
  [[nodiscard]] dse::ExplorerKind explorer() const { return spec_.explorer; }

 private:
  PlanSpec spec_;
  std::vector<PlanRow> rows_;
};

}  // namespace hi::campaign
