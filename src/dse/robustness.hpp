// hi-opt: Γ-robust multi-realization evaluation (DESIGN.md §13).
//
// The paper's Algorithm 1 certifies a design against ONE channel
// realization — a single lucky fade draw can admit a network that fails
// in the field.  Following D'Andreagiovanni & Nardin (PAPERS.md), this
// module hardens the evaluation on two independent axes:
//
//  * K channel realizations: every design point is simulated under K
//    independent channel-fade roots (Evaluator::realization), its PDR
//    reported as a mean with a two-sided confidence interval and its
//    feasibility judged by the WORST realization.  Realization 0 is the
//    nominal channel, so K = 1 is bit-identical to the legacy path, and
//    the realization-seed derivation is nested in K so growing K only
//    adds draws — the robust optimum is monotone non-decreasing in K.
//
//  * a Γ deviation budget (Bertsimas–Sim): up to Γ links may degrade
//    beyond what any simulated realization shows, each costing its
//    cell's per-link deviation (model::robust_protection_mw).  The
//    protection is added to the measured worst-case power, making the
//    robust objective  max_k P_k + protection(Γ)  — monotone in Γ.
//
// RobustBatch is the RunSim of every explorer and of hi::pareto: it
// fans a candidate batch across the K realization evaluators (each
// through its own exec::BatchEvaluator, realization 0 first) and folds
// the per-realization results into RobustEvaluations.  A nominal run is
// simply K = 1, Γ = 0: the fold then returns realization 0's numbers
// bit for bit (check_robust_collapse proves it), so there is one
// evaluation path, not a nominal and a robust one.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dse/evaluator.hpp"
#include "dse/exploration.hpp"
#include "exec/batch_evaluator.hpp"
#include "model/config.hpp"

namespace hi::dse {

/// The robustness knob threaded through ExplorationOptions, hi_campaign
/// and the store fingerprints.  The default (Γ = 0, K = 1) is the
/// nominal run; active() only decides whether the robust summary enters
/// fingerprints and reports, so legacy digests stay byte-identical.
/// Every run validates it (RobustBatch's constructor).
struct RobustnessOptions {
  int gamma = 0;          ///< deviation budget: links the adversary may degrade
  int realizations = 1;   ///< K independent channel realizations
  double confidence = 0.95;  ///< two-sided PDR confidence level
  [[nodiscard]] bool active() const { return gamma > 0 || realizations > 1; }
};

/// A design point's evaluation folded over K channel realizations plus
/// the Γ-protection of its cell.
struct RobustEvaluation {
  /// Realization 0 — the nominal single-seed result, pointing into the
  /// evaluator cache (reference-stable; see Evaluator::evaluate), so
  /// folding K = 1 copies nothing.
  const Evaluation* nominal = nullptr;
  int realizations = 1;     ///< K
  double worst_pdr = 0.0;   ///< min over realizations: the feasibility metric
  double mean_pdr = 0.0;    ///< mean over realizations
  double pdr_lo = 0.0;      ///< CI lower bound, clamped to [0, 1]
  double pdr_hi = 0.0;      ///< CI upper bound, clamped to [0, 1]
  double worst_power_mw = 0.0;  ///< max over realizations
  double worst_nlt_s = 0.0;     ///< min over realizations
  /// Max over realizations of the averaged p95 end-to-end delay — the
  /// robust latency objective hi::pareto minimizes.  0.0 unless the
  /// evaluator ran with SimParams::collect_latency.
  double worst_p95_s = 0.0;
  double protection_mw = 0.0;   ///< model::robust_protection_mw of the cell
  /// worst_power_mw + protection_mw — the robust objective value.
  double robust_power_mw = 0.0;
};

/// Rejects (HI_REQUIRE) options no robust run can use: Γ < 0, K < 1 or
/// a confidence outside (0, 1).  Every RobustBatch checks this itself; a
/// caller that creates files before its first run checks it up front.
void require_valid(const RobustnessOptions& robust);

/// Two-sided standard-normal quantile z with P(|Z| <= z) = confidence
/// (Acklam's rational approximation; |error| < 1.15e-9 — deterministic,
/// no tables).  confidence must lie in (0, 1).
[[nodiscard]] double robust_z_value(double confidence);

/// Folds one design point's K per-realization evaluations (realization
/// order, index 0 = nominal) into a RobustEvaluation under `robust`.
/// With K = 1 and Γ = 0 every field collapses bit-identically onto the
/// nominal evaluation (protection is exactly 0.0, CI bounds equal the
/// measured PDR).
[[nodiscard]] RobustEvaluation aggregate_robust(
    const model::NetworkConfig& cfg,
    const std::vector<const Evaluation*>& per_realization,
    const RobustnessOptions& robust);

/// The history row a run records for one design point: worst-case
/// PDR/power/lifetime in the shared fields (sim_power_mw is the robust
/// objective), Γ-protected analytic cost, CI bounds populated.
[[nodiscard]] CandidateRecord robust_record(const model::NetworkConfig& cfg,
                                            const RobustEvaluation& rev);

/// One evaluated design point in objective space: an incumbent of the
/// level walk, and hi::pareto's front point (pareto::FrontPoint).  The
/// objectives are the robust ones (worst-realization PDR, protected
/// power, worst-realization p95) — at K = 1, Γ = 0 the nominal ones —
/// so dominance never needs to know which mode produced the point.
struct DesignPoint {
  model::NetworkConfig cfg;
  double power_mw = 0.0;  ///< minimize (robust: worst power + Γ-protection)
  double pdr = 0.0;       ///< maximize (robust: worst realization)
  double p95_s = 0.0;     ///< minimize (0.0 when latency collection is off)
  double nlt_s = 0.0;     ///< network lifetime of the carried power
  double pdr_lo = 0.0;    ///< CI bounds (robust K >= 2; else == pdr)
  double pdr_hi = 0.0;
  double protection_mw = 0.0;  ///< Γ-protection included in power_mw
};

/// The DesignPoint of a (K-realization) evaluation.
[[nodiscard]] DesignPoint make_point(const model::NetworkConfig& cfg,
                                     const RobustEvaluation& rev);

/// The one incumbent order of every explorer and of hi::pareto: power
/// ascending, then PDR descending, then p95 ascending, then design_key
/// ascending.  Distinct designs never tie, so an incumbent — the
/// minimum of the evaluated designs meeting PDRmin — does not depend on
/// the order they were evaluated in (DESIGN.md §5).
[[nodiscard]] bool lex_before(const DesignPoint& a, const DesignPoint& b);

/// Makes `p` the incumbent of `res`: feasible, best design, robust
/// objective, worst-case PDR, p95 and lifetime, CI and protection.
void adopt_incumbent(ExplorationResult& res, const DesignPoint& p);

/// Appends robust_record(cfg, rev) to res.history, then adopts (cfg,
/// rev) when its worst-case PDR meets `pdr_min` and it comes before the
/// incumbent in lex_before.  Returns whether it was adopted.
bool offer_candidate(ExplorationResult& res, const model::NetworkConfig& cfg,
                     const RobustEvaluation& rev, double pdr_min);

/// See file comment.  Holds one BatchEvaluator per realization (so K
/// pools of `threads` workers when threads >= 1 — sized for the K <= 8
/// regime the CLI exposes); the evaluator must outlive the batch and
/// must not be used directly while a call is in flight.  Throws
/// hi::ModelError on invalid RobustnessOptions (Γ < 0, K < 1,
/// confidence outside (0, 1)) or threads < 0.
class RobustBatch {
 public:
  RobustBatch(Evaluator& eval, int threads, RobustnessOptions robust);

  /// Evaluates every configuration under all K realizations and returns
  /// the folded results, aligned with `cfgs`.  Records the
  /// `dse.realizations` counter (K per design point requested) on the
  /// evaluator's active registry.  Bit-identical at any thread count.
  [[nodiscard]] std::vector<RobustEvaluation> evaluate(
      const std::vector<model::NetworkConfig>& cfgs);

  /// Single-configuration convenience (simulated annealing's move loop;
  /// build that batch serial — one state at a time has nothing to fan).
  [[nodiscard]] RobustEvaluation evaluate_one(const model::NetworkConfig& cfg);

  [[nodiscard]] const RobustnessOptions& options() const { return robust_; }

 private:
  Evaluator& eval_;
  RobustnessOptions robust_;
  /// One batch engine per realization, index k over eval_.realization(k).
  std::vector<std::unique_ptr<exec::BatchEvaluator>> batches_;
};

}  // namespace hi::dse
