// hi-opt: the property library — differential and metamorphic checks.
//
// Every check returns a list of human-readable violations (empty = the
// property held), so gtest suites can assert emptiness and the fuzzer
// can aggregate them into a seed report.  Three families:
//
//   differential   the floating-point solvers against exact references:
//                  simplex (cold and warm-started) vs rational vertex
//                  enumeration, branch and bound (cold and warm
//                  re-solved) vs integer-box enumeration, and every
//                  MILP round of the DSE encoding vs its closed-form
//                  level walk.
//   metamorphic    known relations between whole DSE runs: Algorithm 1
//                  must land on the exhaustive optimum; raising PDRmin
//                  can never lower the optimal power; thread count must
//                  not change any result bit.
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
#include "dse/explorer.hpp"
#include "dse/robustness.hpp"
#include "lp/problem.hpp"
#include "milp/model.hpp"
#include "obs/snapshot.hpp"

namespace hi::check {

// --- random instance generators (dyadic coefficients) ------------------

/// A box-bounded LP with 2..max_vars variables and a few random rows
/// (mixed senses).  May be infeasible — that is part of the test space.
[[nodiscard]] lp::Problem random_bounded_lp(Rng& rng, int max_vars = 4);

/// A small MILP mixing binaries, general integers, and bounded
/// continuous variables.
[[nodiscard]] milp::Model random_small_milp(Rng& rng);

// --- differential properties (exact oracles) ---------------------------

/// solve_simplex(p) against the rational vertex oracle: same status,
/// matching objective, and a feasible primal point.
[[nodiscard]] std::vector<std::string> check_lp_against_oracle(
    const lp::Problem& p);

/// Warm starts against the oracle.  `p` (box-bounded) is restated with
/// some variables free or upper-bounded only, their boxes moved into
/// rows, and solved by an lp::Simplex; then up to three random bound
/// tightenings of one variable each (a point, a half-box, or an empty
/// box) are re-solved warm.  Every warm solve must match a cold
/// solve_simplex of the same problem and the exact oracle: same status,
/// matching objective, and a feasible primal point.
[[nodiscard]] std::vector<std::string> check_warm_start_against_oracle(
    const lp::Problem& p, Rng& rng);

/// milp::solve(m) against the rational box oracle: same status, matching
/// objective, and the solver's integral assignment is one of the
/// oracle's optimal assignments.
[[nodiscard]] std::vector<std::string> check_milp_against_oracle(
    const milp::Model& m);

/// milp::Solver's warm re-solves against the box oracle.  `m` is solved
/// through one persistent solver, then up to three random bound
/// tightenings of one variable each (a point, a half-box, or an empty
/// box) are re-solved from the last optimal root.  Every result must
/// match a cold milp::solve of the tightened model and the oracle: same
/// status, matching objective, and an integral assignment in the
/// oracle's optimal set.
[[nodiscard]] std::vector<std::string> check_milp_warm_against_oracle(
    const milp::Model& m, Rng& rng);

/// The DSE encoding's level walk in closed form, at deviation budget
/// `gamma`: walking run_milp / add_power_cut_above until the MILP runs
/// dry must visit every distinct protected analytic power of the
/// feasible designs (star designs need the coordinator) in ascending
/// order.  Each round's power_mw must bit-equal the cheapest remaining
/// level and its candidates must be exactly the designs at that level.
[[nodiscard]] std::vector<std::string> check_milp_levels(
    const model::Scenario& sc, int gamma);

// --- channel properties -------------------------------------------------

/// Tape ≡ stream: with a random seed, σ, τ and a short random tape
/// length, a GaussMarkovFade reading a NormalTape bit-equals one drawing
/// from the stream itself at every sample of a non-decreasing time
/// sequence (repeated times included) that runs past the tape's end.
/// The same holds for BodyChannel on make_body_tapes vs on the Rng,
/// through path_loss_batch_db with random receiver sets and through
/// path_loss_db in both orientations of a link.
[[nodiscard]] std::vector<std::string> check_fade_tape(Rng& rng);

/// Table ≡ formula: with random σ and τ and sample times whose Δt come
/// from a small set, Δt = 0 and two Δt values forced into one
/// DecayTable slot (alternated), every table-backed GaussMarkovFade
/// step bit-equals a reference step that recomputes exp(−Δt/τ) and
/// sqrt(1−ρ²), and two fades sharing one table bit-equal two fades with
/// a table each.
[[nodiscard]] std::vector<std::string> check_decay_table(Rng& rng);

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

/// Exhaustive search at `threads` workers vs serial: bit-identical
/// ExplorationResult (best point, metrics, history) and equal counter
/// snapshots (exec.* scheduling counters excluded — see DESIGN.md §8).
/// The Γ=0, K=1 case of check_robust_thread_determinism.
[[nodiscard]] std::vector<std::string> check_thread_determinism(
    const ScenarioSpec& spec, int threads);

/// Shared fade tapes are invisible to results: robust exhaustive search
/// through net::default_channel_factory() at `threads` workers vs a
/// serial run through a factory that builds every channel from its seed
/// (no tapes).  Bit-identical result and equal counter snapshots, as in
/// check_robust_thread_determinism.
[[nodiscard]] std::vector<std::string> check_tape_cache_invisible(
    const ScenarioSpec& spec, int threads,
    const dse::RobustnessOptions& robust = {});

// --- robustness properties ---------------------------------------------

/// Robust Algorithm 1 (sound bound) vs robust exhaustive search under
/// the same RobustnessOptions: same feasibility, same robust optimal
/// power and the same design (one incumbent order), never more
/// simulations.  Runs share `eval`'s caches.
[[nodiscard]] std::vector<std::string> check_robust_alg1_matches_exhaustive(
    const model::Scenario& sc, dse::Evaluator& eval, double pdr_min,
    const dse::RobustnessOptions& robust);

/// Algorithm 1 at each PDRmin of `pdr_mins` equals that rung of
/// pareto::ladder_front bit for bit — feasibility, design key, power,
/// PDR, p95, lifetime, CI bounds and protection — under the same
/// RobustnessOptions and termination bound (kPaperAlpha: nominal only).
/// Runs share `eval`'s caches.
[[nodiscard]] std::vector<std::string> check_alg1_matches_ladder(
    const model::Scenario& sc, dse::Evaluator& eval,
    const std::vector<double>& pdr_mins, const dse::RobustnessOptions& robust,
    dse::TerminationBound bound);

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
