// hi-opt: hi::crowd — multi-body simulation on a shared medium.
//
// Scales the single-body simulator to M co-located human intranets:
// every body runs its own coordinator, topology, and traffic (one
// NetworkConfig, M instances), all radios share one Medium over a
// channel::CrowdChannel, and cross-network transmissions interfere at
// the radio layer exactly like intra-network ones — they occupy the
// medium, corrupt overlapping receptions under the capture rule, and
// are dropped only after a successful decode (the net-id filter), so a
// dense crowd collapses PDR the way a real shared band does.
//
// Determinism contracts (DESIGN.md §15):
//
//   * M=1 collapse — simulate_crowd with one body is bit-identical to
//     net::simulate, results and des.* / net.* counters alike: both are
//     the one engine net::detail::run_bodies (net/node_stack.hpp), whose
//     body 0 RNG lane IS params.seed, and the crowd channel degenerates
//     to the single BodyChannel.  simulate_crowd adds only the canonical
//     body order, the aggregate and the net.crowd_* counters.
//
//   * body-relabeling invariance — bodies are built in canonical
//     placement order (sorted by (y, x, input index)), and each body's
//     RNG lane is keyed by canonical rank, so permuting the placement
//     list permutes CrowdResult::per_body but leaves every per-body
//     result bit-identical.
//
//   * thread invariance — sweep() fans points out over an
//     exec::ThreadPool but every point's randomness is derived from the
//     sweep roots alone; results are bit-identical at any thread count.
//
// Durability: sweep() keys each point by
// store::crowd_point_fingerprint and serves repeats from the EvalStore
// (counted as store hits, dse.store_hits included), so a killed sweep
// resumed with the same store re-simulates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "channel/crowd_channel.hpp"
#include "dse/evaluator.hpp"
#include "model/crowd.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "store/store.hpp"

namespace hi::crowd {

/// Outcome of one crowd run.
struct CrowdResult {
  /// Crowd-level aggregate.  pdr is the mean over bodies of each body's
  /// Eq. (7) PDR, worst/mean power aggregate the per-body values the
  /// same way simulate's lifetime block does, `medium`/`events` are
  /// global (the shared medium and the one kernel), `nodes` holds one
  /// row per body (location = body index in *input* placement order,
  /// stats summed over the body's nodes), and `crowd` is present with
  /// the coexistence counters.
  net::SimResult summary;
  /// Full per-body results in input placement order, as the engine
  /// summarized them (medium / events live in the summary) — for M == 1
  /// per_body[0] matches the aggregate's metric fields.
  std::vector<net::SimResult> per_body;
};

/// Crowd channel for `sc`'s effective placement under `seed` (bodies in
/// canonical placement order, matching simulate_crowd's build order).
[[nodiscard]] std::unique_ptr<channel::CrowdChannel> make_crowd_channel_for(
    const model::CrowdScenario& sc, std::uint64_t seed);

/// One crowd run over the given channel (normally
/// make_crowd_channel_for(sc, ...); any ChannelModel over
/// bodies × kNumLocations global ids works).  See the file comment for
/// the determinism contracts; `params` is the same knob set as
/// net::simulate, with `params.seed` as body 0's (canonical) RNG lane.
/// params.metrics receives the engine's des.* / net.* set, summed over
/// every body, plus the net.crowd_* counters.
[[nodiscard]] CrowdResult simulate_crowd(const model::CrowdScenario& sc,
                                         channel::ChannelModel& channel,
                                         const net::SimParams& params);

/// `runs` independent replications (fresh crowd channel + fresh seeds,
/// from the same replication loop as net::simulate_averaged) with
/// averaged metrics; the returned summary carries the first run's
/// per-body rows and the replication-summed coexistence counters.
[[nodiscard]] CrowdResult simulate_crowd_averaged(
    const model::CrowdScenario& sc, const net::SimParams& params, int runs);

/// Flattens a crowd result into the store's Evaluation shape: headline
/// metrics from the aggregate, detail = CrowdResult::summary (per-body
/// rows ride in detail.nodes, coexistence counters in detail.crowd).
[[nodiscard]] dse::Evaluation to_evaluation(const CrowdResult& cr);

/// One sweep point: the crowd evaluated at `bodies`.
struct SweepPoint {
  int bodies = 0;
  bool from_store = false;  ///< served by the EvalStore, not simulated
  dse::Evaluation eval;
};

/// Sweep outcome + honest cost accounting (the resume smoke asserts
/// store_hits == points and simulations == 0 on a warm rerun).
struct SweepResult {
  std::vector<SweepPoint> points;
  std::uint64_t store_hits = 0;
  std::uint64_t simulations = 0;
};

struct SweepOptions {
  std::vector<int> bodies;  ///< M values, evaluated in the given order
  int runs = 3;             ///< replications per point
  /// Worker threads fanning points out (0 = serial, identical results;
  /// negative is rejected).
  int threads = 0;
  /// Durable cache; null = always simulate.  Points are keyed by
  /// crowd_point_fingerprint, fresh results are written through.
  store::EvalStore* store = nullptr;
  /// Nullable; receives crowd.* / net.crowd_* / dse.store_hits counters.
  obs::MetricsRegistry* metrics = nullptr;
  /// Invoked after each point commits, in sweep order.
  std::function<void(const SweepPoint&)> progress;
};

/// Evaluates `base` at every body count in opt.bodies.  All points
/// share `sim`'s seed roots (common random numbers across crowd sizes:
/// the M-trend is not confounded by seed noise); per-M identity lives
/// in the fingerprint, so the same store serves every M distinctly.
[[nodiscard]] SweepResult sweep(const model::CrowdScenario& base,
                                const net::SimParams& sim,
                                const SweepOptions& opt);

}  // namespace hi::crowd
