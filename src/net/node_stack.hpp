// hi-opt: the one simulation engine — M copies ("bodies") of one
// NetworkConfig on a shared kernel, medium and channel — and the one
// replication loop.
//
// net::simulate is the engine at one body; crowd::simulate_crowd is the
// engine at M bodies plus the crowd bookkeeping.  Node wiring, RNG
// lanes, the metrics block and the counter flush exist once, so the
// crowd M=1 contract (DESIGN.md §15) holds by construction; the two
// averaged entry points share replicate() the same way.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.hpp"

namespace hi::net::detail {

/// Outcome of one engine run.
struct BodiesRun {
  /// One result per body, in rank order; `medium` and `events` stay
  /// zero here — they are run-global, see below.
  std::vector<SimResult> bodies;
  MediumStats medium;          ///< the shared medium
  std::uint64_t events = 0;    ///< kernel events executed
  RadioCrowdStats crowd;       ///< summed over every radio
};

/// Runs `bodies` copies of `cfg` for params.duration_s on one kernel
/// (pre-sized for the whole fan-out) and one medium over `channel`.
/// The body of rank r is network r, its node at location l is channel
/// id r·kNumLocations + l, and its RNG lane is params.seed for r = 0
/// (so one body is exactly the single-body run) and a "crowd.body" fork
/// for r >= 1.  Emits the per-node and kernel trace records and flushes
/// the full des.* / net.* counter set into params.metrics once, summed
/// over every node of every body.
[[nodiscard]] BodiesRun run_bodies(const model::NetworkConfig& cfg,
                                   channel::ChannelModel& channel,
                                   const SimParams& params, int bodies);

/// Per-run samples of a replication set (simulate_averaged's spreads).
struct ReplicaSpread {
  RunningStats pdr, worst_power_mw;
};

/// The replication loop of both averaged entry points.  Replication
/// r = 0 .. runs-1 calls run(r, params with r's node seed, r's channel
/// seed), which simulates over a fresh channel and returns that run's
/// headline SimResult.  Node seeds derive from params.seed, channel
/// seeds from params.channel_seed (params.seed when that is 0).  The
/// result returned for r = 0 must outlive the loop: it receives the
/// replication means — PDR, worst and mean power, the Eq. (4) lifetime
/// of the mean worst power on `battery_j` — and the total event count.
ReplicaSpread replicate(
    const SimParams& params, int runs, double battery_j,
    const std::function<SimResult&(int r, const SimParams& run_params,
                                   std::uint64_t channel_seed)>& run);

}  // namespace hi::net::detail
