#include "net/network.hpp"

#include <algorithm>
#include <mutex>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "net/node_stack.hpp"

namespace hi::net {

void require_valid(const SimParams& params) {
  HI_REQUIRE(params.duration_s > params.gen_guard_s,
             "simulate: duration " << params.duration_s
                                   << " s must exceed the generation guard "
                                   << params.gen_guard_s << " s");
}

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

namespace {

/// The body tapes of the channel seeds one default factory has served.
/// Contents depend only on the seed, so which seeds hold tapes changes
/// speed, never results.
class TapeCache {
 public:
  /// Tapes for `seed`, built on its first request; null when every slot
  /// is in use, and then the seed's channel draws from its Rng.
  std::shared_ptr<const channel::BodyTapes> get(std::uint64_t seed) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++tick_;
    Slot* lru = nullptr;
    for (Slot& slot : slots_) {
      if (slot.seed == seed) {
        slot.last_use = tick_;
        ++stats_.hits;
        return slot.tapes;
      }
      if (lru == nullptr || slot.last_use < lru->last_use) lru = &slot;
    }
    const bool full = slots_.size() == kMaxSeeds;
    if (full && tick_ - lru->last_use <= kIdleRequests) {
      ++stats_.untaped;
      return nullptr;
    }
    Slot fresh{seed, tick_, channel::make_body_tapes(Rng{seed})};
    ++stats_.builds;
    if (full) {
      *lru = std::move(fresh);
      return lru->tapes;
    }
    slots_.push_back(std::move(fresh));
    return slots_.back().tapes;
  }

  TapeCacheStats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    TapeCacheStats out = stats_;
    out.seeds = slots_.size();
    return out;
  }

 private:
  /// At most 16 seeds' tapes (5.8 MB).  The paper's experiments use 3
  /// channel seeds, a Γ/K run K·runs more.
  static constexpr std::size_t kMaxSeeds = 16;
  /// A new seed takes the least recently used seed's slot only once that
  /// seed has gone unrequested this long: the caller has moved on (say,
  /// to the next campaign row).  A run that cycles through more seeds
  /// than slots (robust annealing with K·runs > 16 evaluates one design
  /// at a time) asks for every held seed again within one cycle, so
  /// while a cycle is at most this many requests the held seeds stay and
  /// the others draw from their Rng, instead of every request evicting
  /// the seed asked for next and rebuilding tapes (about 1 ms a set).
  static constexpr std::uint64_t kIdleRequests = 4 * kMaxSeeds;

  struct Slot {
    std::uint64_t seed;
    std::uint64_t last_use;  ///< tick_ of the seed's latest request
    std::shared_ptr<const channel::BodyTapes> tapes;
  };

  mutable std::mutex mu_;
  std::uint64_t tick_ = 0;  ///< requests so far
  std::vector<Slot> slots_;
  TapeCacheStats stats_;
};

/// The callable default_channel_factory() returns; copies share `cache`.
struct DefaultChannelFactory {
  std::shared_ptr<TapeCache> cache;

  std::unique_ptr<channel::ChannelModel> operator()(std::uint64_t seed) const {
    if (auto tapes = cache->get(seed)) {
      return channel::make_default_body_channel(std::move(tapes));
    }
    return channel::make_default_body_channel(seed);
  }
};

}  // namespace

ChannelFactory default_channel_factory() {
  return DefaultChannelFactory{std::make_shared<TapeCache>()};
}

std::optional<TapeCacheStats> tape_cache_stats(const ChannelFactory& factory) {
  if (const auto* f = factory.target<DefaultChannelFactory>()) {
    return f->cache->stats();
  }
  return std::nullopt;
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
