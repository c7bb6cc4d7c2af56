// hi-opt: the property library — differential and metamorphic checks.
//
// Every check returns a list of human-readable violations (empty = the
// property held), so gtest suites can assert emptiness and the fuzzer
// can aggregate them into a seed report.  Three families:
//
//   differential   the floating-point solvers against the exact rational
//                  oracles: simplex vs vertex enumeration, branch-and-
//                  bound vs integer-box enumeration, and the no-good-cut
//                  solution pool vs the oracle's complete optimum set.
//   metamorphic    known relations between whole DSE runs: Algorithm 1
//                  must land on the exhaustive optimum; raising PDRmin
//                  can never lower the optimal power; a power cut / a
//                  no-good cut can never improve the objective; thread
//                  count must not change any result bit.
//   invariant      audited_simulate (check/invariants.hpp) over sampled
//                  feasible configurations of a scenario.
//
// The random instance generators quantize every coefficient to 1/16
// steps, so Rational::from_double is exact and the oracles' 128-bit
// limbs never overflow on in-scope instances.
#pragma once

#include <string>
#include <vector>

#include "check/scenario_gen.hpp"
#include "common/rng.hpp"
#include "dse/evaluator.hpp"
#include "dse/robustness.hpp"
#include "lp/problem.hpp"
#include "milp/model.hpp"
#include "milp/robust.hpp"
#include "obs/snapshot.hpp"

namespace hi::check {

// --- random instance generators (dyadic coefficients) ------------------

/// A box-bounded LP with 2..max_vars variables and a few random rows
/// (mixed senses).  May be infeasible — that is part of the test space.
[[nodiscard]] lp::Problem random_bounded_lp(Rng& rng, int max_vars = 4);

/// A small MILP mixing binaries, general integers, and bounded
/// continuous variables.
[[nodiscard]] milp::Model random_small_milp(Rng& rng);

/// A pool-friendly MILP: binaries (plus optional continuous variables),
/// no general integers, with coarsely quantized costs so ties — and
/// hence multiple optima — are common.
[[nodiscard]] milp::Model random_pool_milp(Rng& rng);

/// A tied-cost MILP with alternative optima GUARANTEED by construction:
/// 3..5 equal-cost binaries under a symmetric equality cardinality row
/// (every k-subset is feasible and equally priced) plus one zero-cost
/// free binary — the same tie pattern the DSE encoding's MAC bit
/// produces, where the pool must enumerate both settings of a variable
/// the objective never sees.
[[nodiscard]] milp::Model random_tied_pool_milp(Rng& rng);

// --- differential properties (exact oracles) ---------------------------

/// solve_simplex(p) against the rational vertex oracle: same status,
/// matching objective, and a feasible primal point.
[[nodiscard]] std::vector<std::string> check_lp_against_oracle(
    const lp::Problem& p);

/// milp::solve(m) against the rational box oracle: same status, matching
/// objective, and the solver's integral assignment is one of the
/// oracle's optimal assignments.
[[nodiscard]] std::vector<std::string> check_milp_against_oracle(
    const milp::Model& m);

/// milp::solve_all_optimal(m) against the oracle: the pool's set of
/// binary optima must equal the enumerator's complete set exactly.
[[nodiscard]] std::vector<std::string> check_pool_against_enumerator(
    const milp::Model& m);

/// Pool completeness under objective ties: on a tied-cost instance
/// (random_tied_pool_milp) the pool must equal the enumerator's complete
/// optimal set AND that set must have at least two members — a pool that
/// silently drops tied alternatives would starve the frontier sweep of
/// candidates without failing any single-optimum differential.
[[nodiscard]] std::vector<std::string> check_tied_pool_completeness(
    const milp::Model& m);

// --- metamorphic DSE properties ----------------------------------------

/// Algorithm 1 (sound bound) and exhaustive search agree on feasibility
/// and on the optimal power, and Algorithm 1 never simulates more.
/// Runs share `eval`'s cache; counters are reset between runs.  The
/// Γ=0, K=1 case of check_robust_alg1_matches_exhaustive.
[[nodiscard]] std::vector<std::string> check_alg1_matches_exhaustive(
    const model::Scenario& sc, dse::Evaluator& eval, double pdr_min);

/// Sweeping exhaustive search over ascending PDRmin targets: optimal
/// power is nondecreasing and feasibility is monotone (once infeasible,
/// stays infeasible).
[[nodiscard]] std::vector<std::string> check_pdrmin_monotone(
    const model::Scenario& sc, dse::Evaluator& eval,
    const std::vector<double>& pdr_mins);

/// MilpEncoding power cuts: each add_power_cut_above(optimum) round
/// yields a strictly larger optimum (or infeasibility), and every
/// optimum is one of achievable_power_levels().
[[nodiscard]] std::vector<std::string> check_power_cuts_monotone(
    const model::Scenario& sc);

/// Generic no-good-cut monotonicity on a random MILP: cutting the
/// incumbent binary assignment never improves the objective, and the
/// next solution differs in the binaries.
[[nodiscard]] std::vector<std::string> check_no_good_cut_monotone(
    milp::Model m);

/// Exhaustive search at `threads` workers vs serial: bit-identical
/// ExplorationResult (best point, metrics, history) and equal counter
/// snapshots (exec.* scheduling counters excluded — see DESIGN.md §8).
/// The Γ=0, K=1 case of check_robust_thread_determinism.
[[nodiscard]] std::vector<std::string> check_thread_determinism(
    const ScenarioSpec& spec, int threads);

// --- robustness properties ---------------------------------------------

/// A pure-binary minimization MILP plus per-variable objective
/// deviations — exactly the scope milp::robust_counterpart is exact on.
struct RobustMilpInstance {
  milp::Model model;
  std::vector<milp::DeviationTerm> deviations;
};

/// Dyadic random instance: 3..5 binaries, a cardinality row that keeps
/// the all-zero point out (so Γ actually bites), deviations on most
/// variables.  May be infeasible — that is part of the test space.
[[nodiscard]] RobustMilpInstance random_robust_milp(Rng& rng);

/// milp::robust_counterpart vs the brute-force worst-case enumerator
/// (check/robust_oracle) across Γ ∈ {0, 1, 2, all}: matching status and
/// objective, the solver's binary assignment is one of the enumerator's
/// optima, and the robust optimum is nondecreasing in Γ.
[[nodiscard]] std::vector<std::string> check_robust_counterpart(
    const RobustMilpInstance& inst);

/// Robust Algorithm 1 (sound bound) vs robust exhaustive search under
/// the same RobustnessOptions: same feasibility, same robust optimal
/// power, never more simulations.  Runs share `eval`'s caches.
[[nodiscard]] std::vector<std::string> check_robust_alg1_matches_exhaustive(
    const model::Scenario& sc, dse::Evaluator& eval, double pdr_min,
    const dse::RobustnessOptions& robust);

/// Γ = 0, K = 1 collapse: RobustBatch aggregation over sampled feasible
/// configs is bit-identical to the plain evaluator (zero protection,
/// degenerate CI), and the Γ=0 MILP encoding's first round matches the
/// nominal encoding's bit for bit.
[[nodiscard]] std::vector<std::string> check_robust_collapse(
    const ScenarioSpec& spec);

/// Crowd M=1 collapse: over sampled feasible configs, a one-body
/// simulate_crowd / simulate_crowd_averaged equals net::simulate /
/// simulate_averaged bit for bit in every SimResult field, counter
/// (net.crowd_* aside) and gauge; only the single run collects latency.
[[nodiscard]] std::vector<std::string> check_crowd_collapse(
    const ScenarioSpec& spec);

/// Monotonicity of the robust exhaustive optimum: nondecreasing in Γ at
/// fixed K (with Γ-independent feasibility), and nondecreasing in K at
/// fixed Γ (with monotone feasibility — nested realization seeds mean a
/// larger K can only add constraints).  Both lists must be ascending.
[[nodiscard]] std::vector<std::string> check_robust_monotone(
    const ScenarioSpec& spec, const std::vector<int>& gammas,
    const std::vector<int>& realizations);

/// Robust exhaustive search at `threads` workers vs serial:
/// bit-identical result (best point, CI bounds, protection, history,
/// counters; exec.* scheduling counters excluded).
[[nodiscard]] std::vector<std::string> check_robust_thread_determinism(
    const ScenarioSpec& spec, int threads,
    const dse::RobustnessOptions& robust);

/// Γ-protected MilpEncoding: round optima rise strictly under cuts, and
/// every candidate's analytic power + closed-form protection equals the
/// round optimum (the encoding and model::robust_protection_mw agree).
[[nodiscard]] std::vector<std::string> check_robust_encoding_levels(
    const model::Scenario& sc, int gamma);

// --- simulator invariants ----------------------------------------------

/// audited_simulate over up to `max_configs` sampled feasible
/// configurations of the scenario; returns all violations found.
[[nodiscard]] std::vector<std::string> check_sim_invariants(
    const ScenarioSpec& spec, int max_configs = 3);

// --- helpers ------------------------------------------------------------

/// Compares the counters of two snapshots, skipping names that start
/// with any of `ignore_prefixes`; returns one violation per mismatch.
[[nodiscard]] std::vector<std::string> diff_counters(
    const obs::Snapshot& a, const obs::Snapshot& b,
    const std::vector<std::string>& ignore_prefixes);

}  // namespace hi::check
