// hi-opt: analytic (coarse) power and lifetime models, Eqs. (3)-(5), (9)
// of the paper.  These are the expressions the MILP optimizes; the
// discrete-event simulator provides the accurate counterparts.
#pragma once

#include "model/config.hpp"

namespace hi::model {

/// Packet air time Tpkt = 8 L / BR in seconds.
[[nodiscard]] double packet_duration_s(const RadioConfig& radio,
                                       const AppConfig& app);

/// Upper bound on per-packet transmissions in a 2-hop mesh flood:
/// NreTx = N^2 - 4N + 5 (paper, Sec. 4.1).
[[nodiscard]] double mesh_retx_bound(int n_nodes);

/// Per-round radio power, Eq. (3): Prd/tx = TxmW + (N-1) RxmW.
[[nodiscard]] double per_round_radio_mw(const RadioConfig& radio, int n_nodes);

/// Average radio power of a non-coordinator node, Eq. (5):
///   star:  φ Tpkt (TxmW + 2 (N-1) RxmW)
///   mesh:  φ Tpkt NreTx (TxmW + (N-1) RxmW)
[[nodiscard]] double radio_power_mw(const RadioConfig& radio,
                                    const AppConfig& app,
                                    RoutingProtocol routing, int n_nodes);

/// Total node power, Eq. (9): P̄ = Pbl + radio power.
[[nodiscard]] double node_power_mw(const NetworkConfig& cfg);

/// Network lifetime of a single node, Eq. (4) specialized to equal
/// batteries: NLT = Ebat / P̄, in seconds.
[[nodiscard]] double lifetime_s(double battery_j, double power_mw);

/// Analytic network lifetime of a configuration in seconds.
[[nodiscard]] double analytic_nlt_s(const NetworkConfig& cfg);

/// Safety factor of the packet-loss power discount (see
/// power_lower_bound_mw), in (0, 1].  kappa = 1 is the paper's literal
/// P̄lb reading ("the minimum power a node must consume for the
/// specified PDR bound"); values below 1 make the bound — and therefore
/// Algorithm 1's α-termination — more conservative.
/// bench_ablation_alpha sweeps this.
inline constexpr double kLossDiscountKappa = 1.0;

/// The paper's analytic lower bound P̄lb on the power a node of `cfg`'s
/// cell consumes while the network still meets `pdr_min` (Sec. 3, the
/// α-termination): the radio share of Eq. (9) shrinks in proportion to
/// the delivered fraction,
///
///   P̄lb = Pbl + kappa * pdr_min * (P̄ - Pbl),   P̄ = node_power_mw(cfg).
///
/// This is the uniform loss discount the level walk's kPaperAlpha stop
/// rule applies to the incumbent's cell (dse/level_walk.cpp, through
/// alpha_factor).  It is NOT a bound the simulator honours: a CSMA mesh
/// whose relay storms collide measures far below P̄lb, and the
/// exhaustive cross-check caught a pruned level that hid the optimum
/// (DESIGN.md §5).  The sound termination compares against
/// measured_power_floor_mw instead.
/// Throws hi::ModelError for pdr_min outside [0, 1] or kappa outside
/// (0, 1].
[[nodiscard]] double power_lower_bound_mw(const NetworkConfig& cfg,
                                          double pdr_min,
                                          double kappa = kLossDiscountKappa);

/// α(S, PDRmin) = P̄ / P̄lb, the factor of Algorithm 1's kPaperAlpha
/// test P̄*/α(S*, PDRmin) > P̄min.  At least 1 up to one rounding step
/// (P̄lb = P̄ exactly in real arithmetic when kappa * pdr_min = 1).
[[nodiscard]] double alpha_factor(const NetworkConfig& cfg, double pdr_min,
                                  double kappa = kLossDiscountKappa);

/// Floor on the power the simulator can *measure* for any configuration
/// in the (radio, routing, N) cell of `cfg` that still meets `pdr_min`
/// — the bound Algorithm 1's kSoundFloor termination compares against
/// incumbent simulated powers.
///
/// Unlike power_lower_bound_mw (the paper's P̄lb, a uniform discount of
/// the analytic radio power), this is derived from what a delivery
/// *provably* costs in the simulator's energy accounting:
///
///  * routing deduplicates, so every counted delivery is a distinct
///    unicast packet — its origin charged >= one full packet airtime of
///    TxmW (a packet dropped in a MAC queue is never delivered), and its
///    destination >= one full airtime of RxmW (the final-hop decode);
///  * a network PDR >= pdr_min forces >= pdr_min * N (N-1) * Smin
///    such deliveries, with Smin the worst-phase round-robin per-pair
///    generation count over the guarded window;
///  * the star coordinator's radio is excluded from the lifetime metric,
///    so deliveries it originates or terminates are discounted;
///  * the worst metered node consumes at least the metered-node mean.
///
/// The bound is convex in the delivery ratio, so it also holds for the
/// evaluator's multi-run averages.  Degenerates to Pbl (never triggers
/// early termination) when the window is too short to force traffic.
[[nodiscard]] double measured_power_floor_mw(const NetworkConfig& cfg,
                                             double pdr_min,
                                             double duration_s,
                                             double gen_guard_s);

/// Fractional per-link loss deviation of the Γ-robust uncertainty model
/// (DESIGN.md §13): an adversarially degraded link costs its endpoints
/// up to this fraction of one extra per-round radio transaction, Eq.
/// (3), per generated packet — one retransmission round every 1/0.25 =
/// 4 packets at the deviation's extreme.  The deviations of the
/// Bertsimas–Sim budget are all scaled by this constant.
inline constexpr double kRobustLossDeviation = 0.25;

/// Number of links the uncertainty set can degrade in an N-node
/// network: N-1 for a star (spokes), N(N-1)/2 for a mesh (all pairs).
[[nodiscard]] int robust_link_count(RoutingProtocol routing, int n_nodes);

/// Worst-case per-node power deviation of ONE degraded link (mW):
///   δ = kRobustLossDeviation · φ · Tpkt · (TxmW + (N-1) RxmW).
/// Identical for every link of a cell, which is what makes the
/// budgeted-uncertainty protection below a closed form.
[[nodiscard]] double robust_link_deviation_mw(const RadioConfig& radio,
                                              const AppConfig& app,
                                              int n_nodes);

/// Bertsimas–Sim protection term of a (radio, app, routing, N) cell
/// under a deviation budget of Γ links: the worst sum of Γ per-link
/// deviations, which — all links of a cell deviating identically — is
/// simply min(Γ, link count) · δ.  Zero (exactly, no FP residue) for
/// Γ <= 0, and monotone non-decreasing in Γ; the Γ-robust MILP adds it
/// to every cell cost and robust Algorithm 1 to every power floor.
[[nodiscard]] double robust_protection_mw(const RadioConfig& radio,
                                          const AppConfig& app,
                                          RoutingProtocol routing, int n_nodes,
                                          int gamma);

/// Convenience overload on a full configuration.
[[nodiscard]] double robust_protection_mw(const NetworkConfig& cfg, int gamma);

}  // namespace hi::model
