// hi-opt: hi::campaign — the campaign runner.
//
// run_single() is the resumable campaign: one process, one EvalStore,
// every cell warm-started from it and checkpointed into it.  Cells run
// in plan order (row by row, the PDRmin grid in order within a row), and
// the cells of one row share one warm-started evaluator, so a later cell
// re-simulates nothing an earlier one paid for.  Each completed cell is
// checkpointed with an fsync that covers every evaluation appended
// before it; `resume` then skips checkpointed cells with zero
// re-simulation, and an interrupted cell replays its finished points
// from the store.  PlanSpec::threads parallelises each cell in-process
// (hi::exec); results are bit-identical at any thread count.
//
// The hi_campaign CLI is a thin argv shim over this function.
#pragma once

#include <iosfwd>
#include <string>

#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "obs/metrics.hpp"
#include "store/record_log.hpp"

namespace hi::campaign {

/// Everything beyond the plan a run needs.
struct RunConfig {
  std::string store_path;  ///< the campaign store
  store::FsyncPolicy fsync = store::FsyncPolicy::kCheckpoint;
  bool resume = false;     ///< skip checkpointed cells
  int cell_delay_ms = 0;   ///< test hook: widen the inter-cell window
  /// Unclean-recovery warnings are printed here (null = silent); the
  /// CLI passes stdout in text mode.
  std::ostream* recovery_warnings = nullptr;
};

/// Runs the whole grid in-process against one store.  Robust options and
/// Tsim are validated (HI_REQUIRE) before the store is opened, so a
/// rejected plan creates no file.  `metrics` is nullable and receives
/// dse.* / store.* counters from every cell.
[[nodiscard]] CampaignReport run_single(const CampaignPlan& plan,
                                        const RunConfig& cfg,
                                        obs::MetricsRegistry* metrics);

}  // namespace hi::campaign
