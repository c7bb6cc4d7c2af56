// hi-opt: whole-network simulation — the RunSim of Algorithm 1.
//
// Builds one node per topology location (radio + MAC + routing + app),
// wires them through a shared Medium/channel, runs the event kernel for
// Tsim seconds, and evaluates the paper's performance metrics:
// per-node and network PDR (Eqs. 6-7) and per-node power / network
// lifetime (Eq. 4).  simulate() is the one-body case of the simulation
// engine in net/node_stack.hpp, which hi::crowd runs at M bodies, and
// simulate_averaged() shares that file's replication loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "channel/channel.hpp"
#include "common/stats.hpp"
#include "model/config.hpp"
#include "net/csma.hpp"
#include "net/latency.hpp"
#include "net/medium.hpp"
#include "net/routing.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hi::net {

/// Simulation controls.
struct SimParams {
  double duration_s = 600.0;  ///< Tsim (paper: 600 s)
  double gen_guard_s = 1.0;   ///< stop generating this early so in-flight
                              ///< packets can land before the run ends
  std::uint64_t seed = 1;     ///< randomness root for this run
  /// Root for the channel realization in simulate_averaged.  0 derives it
  /// from `seed`; a nonzero value decouples the fades from the node
  /// randomness, so different configurations evaluated with the same
  /// channel_seed face the *same* fade trajectories — common random
  /// numbers, which sharpens configuration comparisons dramatically at
  /// short Tsim.
  std::uint64_t channel_seed = 0;
  double capture_db = 10.0;   ///< radio capture threshold
  CsmaParams csma{};          ///< CSMA timing (access mode comes from cfg)
  /// Observability (both null by default — the fast path; see DESIGN.md
  /// §8).  `metrics` aggregates the run's per-layer counters (des.*,
  /// net.*) at end of run; atomic, so concurrent hi::exec workers may
  /// share one registry.  `trace` streams per-event records
  /// (packet tx/rx/drop, backoffs, per-node dwell/energy) as they
  /// happen; point it at a RunTrace wrapping a JSON-lines/CSV/memory
  /// sink to watch a single run.
  obs::MetricsRegistry* metrics = nullptr;
  const obs::RunTrace* trace = nullptr;
  /// Collect per-packet end-to-end delays into SimResult::latency (see
  /// net/latency.hpp).  Off by default: the off path adds one branch per
  /// packet, draws no randomness, and leaves the simulated event
  /// sequence untouched, so latency-off results are bit-identical to
  /// builds that predate the metric (pinned by the golden suite).
  bool collect_latency = false;
};

/// Per-node outcome of a run.
struct NodeResult {
  int location = 0;
  double pdr = 0.0;       ///< Eq. (6)
  double power_mw = 0.0;  ///< baseline + measured radio energy / Tsim
  std::uint64_t app_sent = 0;
  RadioStats radio;
  MacStats mac;
  RoutingStats routing;
};

/// Adds `nr`'s app / radio / MAC / routing counts into `into`; the
/// location, PDR and power fields are left alone.
void add_node_counts(NodeResult& into, const NodeResult& nr);

/// Multi-body (crowd) aggregate carried on a SimResult when the result
/// summarizes an hi::crowd run: per-body rows then live in `nodes`
/// (location = body index) and these fields hold the crowd-global
/// coexistence counters.  Inert (present == false, all zero) for every
/// single-body simulation, and serialized only via the store's guarded
/// crowd tail so legacy evaluation records keep their exact bytes.
struct CrowdSummary {
  bool present = false;
  std::int32_t bodies = 0;
  double min_body_pdr = 0.0;     ///< worst body's Eq. (7) PDR
  std::uint64_t cross_offered = 0;
  std::uint64_t cross_below_sensitivity = 0;
  std::uint64_t foreign_heard = 0;
  std::uint64_t foreign_decoded = 0;
};

/// Whole-run outcome.
struct SimResult {
  double pdr = 0.0;              ///< Eq. (7), in [0,1]
  double worst_power_mw = 0.0;   ///< max power among lifetime-relevant nodes
  double mean_power_mw = 0.0;    ///< mean over lifetime-relevant nodes
  double nlt_s = 0.0;            ///< Eq. (4)
  double duration_s = 0.0;
  std::vector<NodeResult> nodes;
  MediumStats medium;
  std::uint64_t events = 0;      ///< kernel events executed
  /// End-to-end delay summary; all-zero with collected == false unless
  /// SimParams::collect_latency was set.
  LatencySummary latency;
  /// Crowd aggregate (hi::crowd runs only; see CrowdSummary).
  CrowdSummary crowd;
};

/// Rejects (HI_REQUIRE) parameters no run can use: Tsim must exceed the
/// generation guard.  Every simulation checks this itself; a caller that
/// creates files before its first simulation checks it up front.
void require_valid(const SimParams& params);

/// Runs one simulation of `cfg` over the given instantaneous channel.
///
/// Concurrency contract (audited for hi::exec): `cfg` and `params` are
/// read-only, every piece of mutable state (kernel, medium, nodes, RNG
/// streams) is local to the call, and the channel tables in hi::channel
/// are immutable after their thread-safe magic-static initialization —
/// so concurrent simulate() calls are safe provided each caller passes
/// its *own* ChannelModel instance (the model carries per-link fading
/// state and is mutated during the run).
[[nodiscard]] SimResult simulate(const model::NetworkConfig& cfg,
                                 channel::ChannelModel& channel,
                                 const SimParams& params);

/// Produces a fresh channel for a run; receives the run's seed.
/// When an Evaluator is used through hi::exec::BatchEvaluator, the
/// factory is invoked concurrently from worker threads: a replacement
/// factory must tolerate that (be stateless or internally synchronized).
/// The default factory is internally synchronized.
using ChannelFactory =
    std::function<std::unique_ptr<channel::ChannelModel>(std::uint64_t seed)>;

/// The default body channel (synthetic matrix + Gauss-Markov fading).
/// The factory owns a cache of channel::BodyTapes keyed by channel seed:
/// a seed's first channel builds the seed's tapes (about 1 ms), and
/// every channel the factory makes for that seed reads its fade
/// innovations from that one shared, immutable set of per-link tapes
/// instead of recomputing them, so the design points of one experiment
/// (common random numbers) draw each innovation once.  The cache lives
/// as long as any copy of the factory (copies share it, e.g. the copies
/// in EvaluatorSettings and in robust realization children).  It holds
/// at most 16 seeds' tapes, 360 KB each whatever the simulated
/// duration.  When all 16 are in use, a new seed replaces the least
/// recently used one if that seed has gone unrequested for 64 requests,
/// and otherwise its channel draws from its Rng (tape_cache_stats shows
/// how often).  One mutex guards the cache and is held while tapes are
/// built; reading tapes takes no lock.  A channel's trajectories are
/// bit-identical to channel::make_default_body_channel(seed)'s, so
/// results do not depend on the cache, on thread count or on
/// evaluation order.
[[nodiscard]] ChannelFactory default_channel_factory();

/// Counters of a default factory's tape cache.
struct TapeCacheStats {
  std::size_t seeds = 0;      ///< seeds whose tapes are held now
  std::uint64_t builds = 0;   ///< tape sets built; builds - seeds were evicted
  std::uint64_t hits = 0;     ///< channels made on tapes already held
  std::uint64_t untaped = 0;  ///< channels drawing from their Rng: no free slot
};

/// The tape cache counters of `factory` if it is (a copy of) a
/// default_channel_factory(), else nullopt.
[[nodiscard]] std::optional<TapeCacheStats> tape_cache_stats(
    const ChannelFactory& factory);

/// Runs `runs` independent replications (fresh channel + fresh seeds,
/// derived from params.seed) and averages PDR and power; the returned
/// SimResult carries the averaged metrics and the *first* run's detailed
/// node stats.  `pdr_spread`/`power_spread` (optional) receive the
/// per-run sample statistics for error reporting.  Safe to call
/// concurrently for different design points (see simulate) as long as
/// `make_channel` honours the ChannelFactory concurrency note and the
/// spread accumulators, when given, are per-caller.
[[nodiscard]] SimResult simulate_averaged(
    const model::NetworkConfig& cfg, const SimParams& params, int runs,
    const ChannelFactory& make_channel = default_channel_factory(),
    RunningStats* pdr_spread = nullptr, RunningStats* power_spread = nullptr);

}  // namespace hi::net
