#include "net/node_stack.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "channel/locations.hpp"
#include "common/assert.hpp"
#include "common/units.hpp"
#include "net/app.hpp"
#include "net/csma.hpp"
#include "net/latency.hpp"
#include "net/radio.hpp"
#include "net/routing.hpp"
#include "net/tdma.hpp"

namespace hi::net::detail {

namespace {

/// One fully wired node.  Construction order matters: radio -> MAC ->
/// routing -> app, each layer installing its callbacks into the one below.
struct NodeBundle {
  NodeBundle(des::Kernel& kernel, Medium& medium, int loc,
             const model::NetworkConfig& cfg, const SimParams& params,
             int slot_index, int num_slots, std::vector<int> peers, Rng rng,
             LatencyRecorder* latency, int net_id, int channel_id)
      : location(loc),
        radio(kernel, medium, loc,
              RadioParams{.tx_dbm = cfg.radio.tx_dbm,
                          .tx_mw = cfg.radio.tx_mw,
                          .sensitivity_dbm = cfg.radio.rx_dbm,
                          .rx_mw = cfg.radio.rx_mw,
                          .bit_rate_bps = cfg.radio.bit_rate_bps,
                          .capture_db = params.capture_db},
              params.trace, net_id, channel_id) {
    medium.attach(&radio);
    if (cfg.mac.protocol == model::MacProtocol::kCsma) {
      CsmaParams cs = params.csma;
      cs.access_mode = cfg.mac.access_mode;
      mac = std::make_unique<CsmaMac>(kernel, radio, cfg.mac.buffer_packets,
                                      cs, rng.fork("csma"), params.trace);
    } else {
      TdmaParams td;
      td.slot_s = cfg.mac.slot_s;
      td.slot_index = slot_index;
      td.num_slots = num_slots;
      mac = std::make_unique<TdmaMac>(kernel, radio, cfg.mac.buffer_packets,
                                      td, params.trace);
    }
    if (cfg.routing.protocol == model::RoutingProtocol::kStar) {
      routing = std::make_unique<StarRouting>(*mac, loc,
                                              cfg.routing.coordinator);
    } else {
      routing = std::make_unique<MeshRouting>(*mac, loc,
                                              cfg.routing.max_hops);
    }
    app = std::make_unique<AppLayer>(kernel, *routing, cfg.app,
                                     std::move(peers), rng.fork("app"),
                                     latency);
  }

  int location;
  Radio radio;
  std::unique_ptr<Mac> mac;
  std::unique_ptr<Routing> routing;
  std::unique_ptr<AppLayer> app;
};

/// One body's node stacks and, when collected, its latency recorder.
struct Body {
  std::vector<std::unique_ptr<NodeBundle>> nodes;
  std::unique_ptr<LatencyRecorder> latency;
};

/// Fills `res` from one body: duration, latency, node rows, PDR, power
/// and lifetime — Eqs. (6), (7) and (4) — and emits the end-of-run
/// per-node trace records.  The per-pair PDR loop treats every node of
/// the body as a traffic peer.
void summarize_nodes(const Body& body, const model::NetworkConfig& cfg,
                     const SimParams& params, SimResult& res) {
  res.duration_s = params.duration_s;
  if (body.latency != nullptr) res.latency = body.latency->summary();
  RunningStats pdr_nodes;
  for (const auto& nb : body.nodes) {
    NodeResult nr;
    nr.location = nb->location;
    nr.app_sent = nb->app->sent();
    nr.radio = nb->radio.stats();
    nr.mac = nb->mac->stats();
    nr.routing = nb->routing->stats();
    nr.power_mw = cfg.app.baseline_mw +
                  (nb->radio.tx_energy_mj() + nb->radio.rx_energy_mj()) /
                      params.duration_s;
    // Eq. (6): average per-pair delivery ratio over the other N-1
    // origins, using per-pair sent counts N(s) i->k.
    double acc = 0.0;
    int terms = 0;
    for (const auto& other : body.nodes) {
      if (other->location == nb->location) continue;
      const std::uint64_t sent = other->app->sent_to(nb->location);
      if (sent == 0) continue;  // degenerate ultra-short run
      acc += static_cast<double>(nb->app->received_from(other->location)) /
             static_cast<double>(sent);
      ++terms;
    }
    nr.pdr = terms > 0 ? acc / terms : 0.0;
    pdr_nodes.add(nr.pdr);
    if (params.trace != nullptr) {
      // End-of-run per-node summaries: radio state dwell (derived from
      // the metered energy, which charges packet transactions only) and
      // the energy split itself.
      params.trace->record(obs::TraceEvent{
          params.duration_s, obs::TraceKind::kRadioDwell, nb->location, -1,
          static_cast<std::int64_t>(nr.radio.tx_packets),
          nb->radio.tx_energy_mj() / nb->radio.params().tx_mw,
          nb->radio.rx_energy_mj() / nb->radio.params().rx_mw});
      params.trace->record(obs::TraceEvent{
          params.duration_s, obs::TraceKind::kNodeEnergy, nb->location, -1,
          static_cast<std::int64_t>(nr.app_sent), nb->radio.tx_energy_mj(),
          nb->radio.rx_energy_mj()});
    }
    res.nodes.push_back(nr);
  }
  res.pdr = pdr_nodes.mean();  // Eq. (7)

  // Lifetime, Eq. (4): the star coordinator has its own larger energy
  // store (paper Sec. 4.1) and is excluded; in a mesh all nodes count.
  RunningStats powers;
  double worst = 0.0;
  for (const NodeResult& nr : res.nodes) {
    const bool is_coordinator =
        cfg.routing.protocol == model::RoutingProtocol::kStar &&
        nr.location == cfg.routing.coordinator;
    if (is_coordinator) continue;
    powers.add(nr.power_mw);
    worst = std::max(worst, nr.power_mw);
  }
  res.worst_power_mw = worst;
  res.mean_power_mw = powers.mean();
  res.nlt_s = worst > 0.0 ? cfg.battery_j / mw_to_w(worst) : 0.0;
}

/// One atomic flush per run keeps the event loop itself free of registry
/// traffic; the per-layer stats structs already hold the counts.
/// Order-independent sums, so parallel runs recording into a shared
/// registry reach the same totals as serial ones.
void flush_counters(obs::MetricsRegistry& m, const des::Kernel& kernel,
                    const BodiesRun& run, const SimParams& params) {
  NodeResult t;
  for (const SimResult& body : run.bodies) {
    for (const NodeResult& nr : body.nodes) add_node_counts(t, nr);
  }
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"net.runs", 1},
      {"des.events", kernel.events_processed()},
      {"des.dispatches", kernel.dispatches()},
      {"des.cancelled", kernel.events_cancelled()},
      {"des.alloc_slabs", kernel.arena_chunks()},
      {"des.alloc_handler_heap", kernel.handler_heap_allocs()},
      {"des.heap_sift", kernel.heap_sift_steps()},
      {"net.medium.transmissions", run.medium.transmissions},
      {"net.medium.deliveries_offered", run.medium.deliveries_offered},
      {"net.medium.below_sensitivity", run.medium.below_sensitivity},
      {"net.radio.tx_packets", t.radio.tx_packets},
      {"net.radio.rx_ok", t.radio.rx_ok},
      {"net.radio.rx_corrupted", t.radio.rx_corrupted},
      {"net.radio.rx_missed", t.radio.rx_missed},
      {"net.radio.rx_aborted", t.radio.rx_aborted},
      {"net.mac.enqueued", t.mac.enqueued},
      {"net.mac.sent", t.mac.sent},
      {"net.mac.dropped_buffer", t.mac.dropped_buffer},
      {"net.mac.backoffs", t.mac.backoffs},
      {"net.app.sent", t.app_sent},
  };
  for (const auto& [name, value] : counts) m.counter(name).add(value);
  m.gauge("des.heap_highwater")
      .update_max(static_cast<double>(kernel.heap_highwater()));
  if (params.collect_latency) {
    // Gated so latency-off runs record exactly the pre-latency counter
    // set (counter-invariance: the fuzz suite diffs registries).  One
    // p95 observation per body.
    for (const SimResult& body : run.bodies) {
      m.counter("net.latency_samples").add(body.latency.samples);
      m.histogram("net.latency_p95_s").observe(body.latency.p95_s);
    }
  }
}

}  // namespace

BodiesRun run_bodies(const model::NetworkConfig& cfg,
                     channel::ChannelModel& channel, const SimParams& params,
                     int bodies) {
  const std::vector<int> locs = cfg.topology.locations();
  const int n = static_cast<int>(locs.size());
  HI_REQUIRE(n >= 2, "simulate: need at least 2 nodes, topology has " << n);
  require_valid(params);
  if (cfg.routing.protocol == model::RoutingProtocol::kStar) {
    HI_REQUIRE(cfg.topology.has(cfg.routing.coordinator),
               "star coordinator location " << cfg.routing.coordinator
                                            << " carries no node");
  }

  des::Kernel kernel;
  // One shared arena for every body, pre-sized so the steady-state
  // pending set (a handful of events per node) never grows mid-run.
  kernel.reserve(static_cast<std::size_t>(bodies) *
                 static_cast<std::size_t>(n) * 4);
  Medium medium(kernel, channel, params.trace);

  // Bodies are built in rank order: the medium's radio list, the
  // channel ids and the RNG lanes all follow the rank.
  std::vector<Body> nets(static_cast<std::size_t>(bodies));
  for (int rank = 0; rank < bodies; ++rank) {
    // Rank 0's RNG lane IS the run seed (the one-body collapse).
    const Rng lane =
        rank == 0 ? Rng{params.seed}
                  : Rng{Rng{params.seed}
                            .fork("crowd.body")
                            .fork(static_cast<std::uint64_t>(rank))
                            .next_u64()};
    Body& body = nets[static_cast<std::size_t>(rank)];
    if (params.collect_latency) {
      body.latency = std::make_unique<LatencyRecorder>();
    }
    body.nodes.reserve(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      const int loc = locs[static_cast<std::size_t>(k)];
      std::vector<int> peers = locs;  // every other node, in topology order
      peers.erase(peers.begin() + k);
      body.nodes.push_back(std::make_unique<NodeBundle>(
          kernel, medium, loc, cfg, params,
          /*slot_index=*/k, /*num_slots=*/n, std::move(peers),
          lane.fork(static_cast<std::uint64_t>(loc)), body.latency.get(),
          /*net_id=*/rank,
          /*channel_id=*/rank * channel::kNumLocations + loc));
    }
  }

  const double gen_end = params.duration_s - params.gen_guard_s;
  for (Body& body : nets) {
    for (auto& nb : body.nodes) {
      nb->mac->start();
      nb->app->start(gen_end);
    }
  }
  kernel.run_until(params.duration_s);

  BodiesRun run;
  run.medium = medium.stats();
  run.events = kernel.events_processed();
  run.bodies.resize(static_cast<std::size_t>(bodies));
  for (int rank = 0; rank < bodies; ++rank) {
    const Body& body = nets[static_cast<std::size_t>(rank)];
    summarize_nodes(body, cfg, params, run.bodies[static_cast<std::size_t>(rank)]);
    for (const auto& nb : body.nodes) {
      run.crowd.foreign_heard += nb->radio.crowd_stats().foreign_heard;
      run.crowd.foreign_decoded += nb->radio.crowd_stats().foreign_decoded;
    }
  }

  if (params.trace != nullptr) {
    params.trace->record(obs::TraceEvent{
        params.duration_s, obs::TraceKind::kKernel, -1, -1,
        static_cast<std::int64_t>(kernel.events_processed()),
        static_cast<double>(kernel.events_cancelled()),
        static_cast<double>(kernel.heap_highwater())});
  }
  if (params.metrics != nullptr) {
    flush_counters(*params.metrics, kernel, run, params);
  }
  return run;
}

ReplicaSpread replicate(
    const SimParams& params, int runs, double battery_j,
    const std::function<SimResult&(int r, const SimParams& run_params,
                                   std::uint64_t channel_seed)>& run) {
  HI_REQUIRE(runs >= 1, "averaged simulation: need at least one run, got "
                            << runs);
  const Rng seeder(params.seed);
  const Rng channel_seeder(params.channel_seed != 0 ? params.channel_seed
                                                    : params.seed);
  ReplicaSpread spread;
  RunningStats mean_power;
  double events = 0.0;
  SimResult* avg = nullptr;
  for (int r = 0; r < runs; ++r) {
    const auto label = static_cast<std::uint64_t>(r);
    SimParams run_params = params;
    run_params.seed = seeder.fork(label).next_u64();
    SimResult& one =
        run(r, run_params, channel_seeder.fork(label).next_u64() ^ 0xC0FFEE);
    if (r == 0) avg = &one;
    spread.pdr.add(one.pdr);
    spread.worst_power_mw.add(one.worst_power_mw);
    mean_power.add(one.mean_power_mw);
    events += static_cast<double>(one.events);
  }
  avg->pdr = spread.pdr.mean();
  avg->worst_power_mw = spread.worst_power_mw.mean();
  avg->mean_power_mw = mean_power.mean();
  avg->nlt_s = avg->worst_power_mw > 0.0
                   ? battery_j / mw_to_w(avg->worst_power_mw)
                   : 0.0;
  avg->events = static_cast<std::uint64_t>(events);
  return spread;
}

}  // namespace hi::net::detail
