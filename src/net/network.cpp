#include "net/network.hpp"

#include <algorithm>
#include <utility>

#include "net/node_stack.hpp"

namespace hi::net {

SimResult simulate(const model::NetworkConfig& cfg,
                   channel::ChannelModel& channel, const SimParams& params) {
  detail::BodiesRun run = detail::run_bodies(cfg, channel, params, 1);
  SimResult res = std::move(run.bodies.front());
  res.medium = run.medium;
  res.events = run.events;
  return res;
}

void add_node_counts(NodeResult& into, const NodeResult& nr) {
  into.app_sent += nr.app_sent;
  into.radio.tx_packets += nr.radio.tx_packets;
  into.radio.rx_ok += nr.radio.rx_ok;
  into.radio.rx_corrupted += nr.radio.rx_corrupted;
  into.radio.rx_missed += nr.radio.rx_missed;
  into.radio.rx_aborted += nr.radio.rx_aborted;
  into.mac.enqueued += nr.mac.enqueued;
  into.mac.sent += nr.mac.sent;
  into.mac.dropped_buffer += nr.mac.dropped_buffer;
  into.mac.backoffs += nr.mac.backoffs;
  into.routing.originated += nr.routing.originated;
  into.routing.delivered += nr.routing.delivered;
  into.routing.duplicates += nr.routing.duplicates;
  into.routing.relayed += nr.routing.relayed;
}

ChannelFactory default_channel_factory() {
  return [](std::uint64_t seed) {
    return channel::make_default_body_channel(seed);
  };
}

SimResult simulate_averaged(const model::NetworkConfig& cfg,
                            const SimParams& params, int runs,
                            const ChannelFactory& make_channel,
                            RunningStats* pdr_spread,
                            RunningStats* power_spread) {
  SimResult first, later;
  RunningStats lat_mean, lat_p50, lat_p95;
  double lat_max = 0.0;
  std::uint64_t lat_samples = 0;
  const detail::ReplicaSpread spread = detail::replicate(
      params, runs, cfg.battery_j,
      [&](int r, const SimParams& run_params,
          std::uint64_t channel_seed) -> SimResult& {
        SimResult& one = r == 0 ? first : later;
        one = simulate(cfg, *make_channel(channel_seed), run_params);
        if (params.collect_latency) {
          // Mirror the PDR treatment: mean over replications of each
          // quantile, worst case for the max, total for the sample count.
          lat_mean.add(one.latency.mean_s);
          lat_p50.add(one.latency.p50_s);
          lat_p95.add(one.latency.p95_s);
          lat_max = std::max(lat_max, one.latency.max_s);
          lat_samples += one.latency.samples;
        }
        return one;
      });
  if (pdr_spread != nullptr) {
    *pdr_spread = spread.pdr;
  }
  if (power_spread != nullptr) {
    *power_spread = spread.worst_power_mw;
  }
  if (params.collect_latency) {
    first.latency.collected = true;
    first.latency.samples = lat_samples;
    first.latency.mean_s = lat_mean.mean();
    first.latency.p50_s = lat_p50.mean();
    first.latency.p95_s = lat_p95.mean();
    first.latency.max_s = lat_max;
  }
  return first;
}

}  // namespace hi::net
