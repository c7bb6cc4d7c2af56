// hi-opt: the unified explorer front end and the one run harness.
//
// The four exploration strategies — Algorithm 1 (MILP + simulation),
// exhaustive search, simulated annealing and the fast-ILP heuristic —
// consume one options bag, ExplorationOptions; the knobs a strategy
// does not use are simply ignored, so one options value can drive a
// fair comparison.  explore() dispatches on an ExplorerKind, and
// benches iterate kAllExplorers instead of hand-rolling one call site
// per strategy.  Algorithm 1 and the fast-ILP heuristic are two stop
// rules over one MILP level walk (dse/level_walk.hpp), and every
// strategy picks its incumbent by the one order lex_before
// (dse/robustness.hpp).  hi::pareto's sweeps run on the same options
// (SweepOptions::run) and the same harness.
//
// Observability: every run — each explorer and each Pareto sweep — is
// wrapped in a RunScope that validates the options, installs the
// active obs::MetricsRegistry into the evaluator (the caller's via
// ExplorationOptions::metrics, the evaluator's own, or a private one —
// in that order), snapshots it before and after, and stores the delta
// in ExplorationResult::metrics.  The scalar fields (`simulations`,
// `milp_bnb_nodes`) are populated from the same counters, so they
// always agree with the snapshot bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "dse/evaluator.hpp"
#include "dse/exploration.hpp"
#include "dse/robustness.hpp"
#include "model/design_space.hpp"
#include "model/power.hpp"
#include "obs/metrics.hpp"

namespace hi::dse {

/// The four exploration strategies.
enum class ExplorerKind {
  kAlgorithm1,  ///< the paper's MILP + simulation loop
  kExhaustive,  ///< simulate the whole feasible design space
  kAnnealing,   ///< simulated-annealing baseline
  kFastIlp,     ///< fast ILP-based heuristic (D'Andreagiovanni & Nardin):
                ///< Algorithm 1's loop with a patience cutoff instead of
                ///< the sound floor — not exact, benchmarked against it
};

/// Every strategy, in the order the paper compares them (the fast-ILP
/// heuristic, which the paper does not have, comes last).
inline constexpr std::array<ExplorerKind, 4> kAllExplorers = {
    ExplorerKind::kAlgorithm1, ExplorerKind::kExhaustive,
    ExplorerKind::kAnnealing, ExplorerKind::kFastIlp};

[[nodiscard]] const char* to_string(ExplorerKind kind);

/// Which early-termination bound Algorithm 1 uses (line 5 of the
/// paper's listing).
enum class TerminationBound {
  /// No early termination: run the MILP completely dry (the ablation
  /// baseline the other bounds are measured against).
  kNone,
  /// Per-cell measured-power floors (model::measured_power_floor_mw,
  /// delivery accounting against the simulator's energy metering): stop
  /// only when *every* configuration the MILP could still propose
  /// provably measures more than the incumbent.  Guaranteed to return
  /// the exhaustive-search optimum (cross-checked by the test sweeps and
  /// the hi::check fuzzer).
  kSoundFloor,
  /// The paper's literal rule: α = P̄(S*) / P̄lb(S*) with the uniform
  /// loss discount P̄lb = Pbl + PDRmin (P̄ - Pbl), applied to the
  /// incumbent's own cell.  Terminates much earlier (reproduces the
  /// ~87% simulation saving) but is *not* sound when a cheap lossy
  /// configuration hides on a pruned level — e.g. a CSMA mesh whose
  /// relay storms collide, whose simulated power collapses far below
  /// the NreTx-scaled analytic estimate.  bench_alg1_vs_exhaustive
  /// measures both modes.
  kPaperAlpha,
};

/// A progress heartbeat handed to ExplorationOptions::progress.
struct ProgressInfo {
  ExplorerKind kind{};            ///< which explorer is reporting
  int iteration = 0;              ///< explorer-specific outer iteration
  std::uint64_t simulations = 0;  ///< distinct design points so far
  bool feasible = false;          ///< an incumbent meeting PDRmin exists
  double best_power_mw = 0.0;     ///< incumbent power (valid if feasible)
};

/// Progress callback.  Called from the exploring thread between
/// evaluation rounds — cheap work only; never re-enter the evaluator.
using ProgressFn = std::function<void(const ProgressInfo&)>;

/// The one options bag all explorers consume.  Strategy-specific knobs
/// are grouped and ignored by the other strategies.
struct ExplorationOptions {
  double pdr_min = 0.9;  ///< PDRmin, in [0,1]

  /// Outer-iteration budget, >= -1; -1 = the strategy's default (the
  /// level walk: 10'000 evaluated levels, a safety valve; annealing: 400
  /// steps).  Exhaustive search always sweeps the whole space and
  /// ignores it.
  int budget = -1;

  /// Worker threads for batch evaluation (hi::exec::BatchEvaluator).
  /// -1 inherits EvaluatorSettings::threads, 0 forces serial.  Results,
  /// incumbents, and all counters are bit-identical at any value.
  int threads = -1;

  /// Randomness of the annealer's moves and acceptance (the other
  /// strategies are deterministic and ignore it).
  std::uint64_t seed = 7;

  // --- the level walk (Algorithm 1, the PDRmin ladder) ---------------
  TerminationBound bound = TerminationBound::kSoundFloor;
  /// Loss-discount safety factor of the kPaperAlpha bound, in (0, 1];
  /// smaller is more conservative (more simulations).  See
  /// model::power_lower_bound_mw.  The other bounds ignore it.
  double alpha_kappa = model::kLossDiscountKappa;

  // --- robustness (DESIGN.md §13) ------------------------------------
  /// Γ / multi-realization knobs consumed by every explorer, which all
  /// evaluate through one dse::RobustBatch: feasibility is judged on
  /// the worst of K realizations and the objective is worst-case power
  /// + Γ-protection.  The default (K = 1, Γ = 0) is the nominal run —
  /// the fold then returns realization 0's numbers bit for bit.  Robust
  /// Algorithm 1 rejects the kPaperAlpha bound.
  RobustnessOptions robust{};

  // --- observability -------------------------------------------------
  /// Registry the run records into; installed into the evaluator for
  /// the duration of the run (and restored afterwards).  Null = use the
  /// evaluator's own registry, or a run-private one if it has none.
  /// Either way ExplorationResult::metrics carries the run's delta.
  obs::MetricsRegistry* metrics = nullptr;
  ProgressFn progress;  ///< empty = no progress reporting
};

/// Runs Algorithm 1 on `scenario`, evaluating candidates through `eval`.
[[nodiscard]] ExplorationResult run_algorithm1(const model::Scenario& scenario,
                                               Evaluator& eval,
                                               const ExplorationOptions& opt);

/// Runs exhaustive search (budget is ignored; the whole space is swept).
[[nodiscard]] ExplorationResult run_exhaustive(const model::Scenario& scenario,
                                               Evaluator& eval,
                                               const ExplorationOptions& opt);

/// Runs simulated annealing.  Simulations are counted via the evaluator
/// (revisited states hit the cache and are not recounted, which favors
/// the baseline).
[[nodiscard]] ExplorationResult run_annealing(const model::Scenario& scenario,
                                              Evaluator& eval,
                                              const ExplorationOptions& opt);

/// Runs the fast ILP-based heuristic (D'Andreagiovanni & Nardin, "A
/// fast ILP-based Heuristic for the robust design of Body Wireless
/// Sensor Networks", ported onto this code base): Algorithm 1's level
/// walk, but it stops two MILP levels after the feasible incumbent last
/// changed instead of waiting for the sound power floor.  The analytic
/// cost model orders levels well, so skipping the long tail of levels
/// the floor cannot prune saves most simulations; NOT exact —
/// EXPERIMENTS.md documents the optimality gap against (robust)
/// Algorithm 1 and bench_robust_dse gates it.
[[nodiscard]] ExplorationResult run_fast_ilp(const model::Scenario& scenario,
                                             Evaluator& eval,
                                             const ExplorationOptions& opt);

/// Runs the strategy `kind` names: the matching run_* function.
[[nodiscard]] ExplorationResult explore(ExplorerKind kind,
                                        const model::Scenario& scenario,
                                        Evaluator& eval,
                                        const ExplorationOptions& opt = {});

/// What a RunScope measured over its run.
struct RunTotals {
  std::uint64_t simulations = 0;  ///< fresh simulations (every realization)
  std::uint64_t store_hits = 0;   ///< simulations a warm store served
  double wall_time_s = 0.0;
  obs::Snapshot metrics;  ///< the registry's delta over the run
};

/// RAII harness of every run over an Evaluator — the run_* functions
/// and the Pareto sweeps: validates the common options (pdr_min,
/// budget, threads, alpha_kappa; the run's RobustBatch validates
/// RobustnessOptions), resolves the active registry (see the file
/// comment) and installs it into the evaluator, snapshots the metrics
/// baseline, and on finish() records one `dse.runs` / `dse.run_s`
/// sample and measures the run.  The destructor restores the
/// evaluator's previous registry.
class RunScope {
 public:
  RunScope(ExplorerKind kind, Evaluator& eval, const ExplorationOptions& opt);
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  /// The run's options (the level walk reads its bound, kappa, budget
  /// and robustness from them).
  [[nodiscard]] const ExplorationOptions& options() const { return opt_; }

  /// The registry this run records into; never null.
  [[nodiscard]] obs::MetricsRegistry& registry() const { return *registry_; }

  /// Resolved worker-thread count (options override, else evaluator).
  [[nodiscard]] int threads() const { return threads_; }

  /// Invokes the caller's progress callback (no-op when unset) with the
  /// run's incumbent so far.
  void progress(int iteration, bool feasible, double best_power_mw) const;

  /// Ends the run and measures it; call exactly once, last.  Asserts
  /// that the `dse.simulations` delta equals the evaluator's count.
  [[nodiscard]] RunTotals finish();

  /// finish(), filling the run-summary fields of an explorer's result.
  void finish(ExplorationResult& res);

 private:
  ExplorerKind kind_;
  Evaluator& eval_;
  const ExplorationOptions& opt_;
  std::unique_ptr<obs::MetricsRegistry> owned_;  ///< fallback registry
  obs::MetricsRegistry* registry_ = nullptr;
  obs::MetricsRegistry* previous_ = nullptr;
  bool installed_ = false;
  obs::Snapshot start_;
  std::uint64_t sims0_ = 0;
  std::uint64_t store_hits0_ = 0;
  int threads_ = 0;
  double t0_s_ = 0.0;  ///< steady-clock start, in seconds
};

}  // namespace hi::dse
