// Integration tests for the whole-network simulation (net/network.hpp):
// PDR accounting (Eqs. 6-7), power/lifetime (Eq. 4), determinism, and the
// lossless-limit agreement with the analytic model of Eq. (5)/(9).
#include "net/network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "channel/channel.hpp"
#include "common/assert.hpp"
#include "des/kernel.hpp"
#include "net/medium.hpp"
#include "net/radio.hpp"
#include "common/units.hpp"
#include "model/design_space.hpp"
#include "model/power.hpp"

namespace hi::net {
namespace {

/// A perfect channel: every link at `pl` dB, no fading.
channel::StaticChannel uniform_channel(double pl) {
  channel::PathLossMatrix m;
  for (int i = 0; i < channel::kNumLocations; ++i) {
    for (int j = i + 1; j < channel::kNumLocations; ++j) {
      m.set_db(i, j, pl);
    }
  }
  return channel::StaticChannel{m};
}

model::NetworkConfig star_config(model::MacProtocol mac =
                                     model::MacProtocol::kTdma) {
  model::Scenario sc;
  return sc.make_config(model::Topology::from_locations({0, 1, 3, 5}), 2,
                        mac, model::RoutingProtocol::kStar);
}

model::NetworkConfig mesh_config(model::MacProtocol mac =
                                     model::MacProtocol::kTdma) {
  model::Scenario sc;
  return sc.make_config(model::Topology::from_locations({0, 1, 3, 5}), 2,
                        mac, model::RoutingProtocol::kMesh);
}

TEST(Network, PerfectChannelGivesUnitPdr) {
  auto ch = uniform_channel(50.0);
  SimParams sp;
  sp.duration_s = 30.0;
  for (const auto& cfg : {star_config(), mesh_config()}) {
    const SimResult r = simulate(cfg, ch, sp);
    EXPECT_DOUBLE_EQ(r.pdr, 1.0) << cfg.label();
    for (const NodeResult& n : r.nodes) {
      EXPECT_DOUBLE_EQ(n.pdr, 1.0);
      EXPECT_GT(n.app_sent, 0u);
    }
  }
}

TEST(Network, DeadChannelGivesZeroPdr) {
  auto ch = uniform_channel(150.0);
  SimParams sp;
  sp.duration_s = 10.0;
  const SimResult r = simulate(star_config(), ch, sp);
  EXPECT_DOUBLE_EQ(r.pdr, 0.0);
  // Nothing received: only baseline + own transmissions burn power.
  for (const NodeResult& n : r.nodes) {
    EXPECT_EQ(n.radio.rx_ok, 0u);
    EXPECT_GT(n.radio.tx_packets, 0u);
  }
}

TEST(Network, LosslessStarPowerMatchesAnalyticModel) {
  // In the lossless TDMA limit the measured power must approach Eq. (9):
  // each round costs 1 Tx + 2(N-1) Rx per non-coordinator node.
  auto ch = uniform_channel(50.0);
  SimParams sp;
  sp.duration_s = 120.0;
  sp.gen_guard_s = 1.0;
  const auto cfg = star_config(model::MacProtocol::kTdma);
  const SimResult r = simulate(cfg, ch, sp);
  ASSERT_DOUBLE_EQ(r.pdr, 1.0);
  const double analytic = model::node_power_mw(cfg);
  // Eq. (5) charges two receptions per packet per node; packets destined
  // to the coordinator get no echo, so the measured power sits a little
  // below the analytic estimate but within the same regime.
  EXPECT_LE(r.worst_power_mw, analytic);
  EXPECT_GE(r.worst_power_mw, 0.75 * analytic);
}

TEST(Network, LosslessMeshPowerMatchesAnalyticNreTxModel) {
  // Every-copy controlled flooding transmits each packet exactly
  // NreTx = N^2-4N+5 times in the lossless limit, so the simulated power
  // must land on the paper's Eq. (5) mesh model (up to the generation
  // guard and round-robin destination imbalance).
  auto ch = uniform_channel(50.0);
  SimParams sp;
  sp.duration_s = 120.0;
  const auto cfg = mesh_config(model::MacProtocol::kTdma);
  const SimResult r = simulate(cfg, ch, sp);
  ASSERT_DOUBLE_EQ(r.pdr, 1.0);
  const double analytic = model::node_power_mw(cfg);
  EXPECT_LE(r.worst_power_mw, analytic * 1.02);
  EXPECT_GE(r.worst_power_mw, analytic * 0.88);
  // And the mesh costs far more than the star (relaying is real work).
  const SimResult rs = simulate(star_config(model::MacProtocol::kTdma), ch,
                                sp);
  EXPECT_GT(r.worst_power_mw, 1.5 * rs.worst_power_mw);
}

TEST(Network, NltUsesWorstNonCoordinatorNode) {
  auto ch = uniform_channel(50.0);
  SimParams sp;
  sp.duration_s = 30.0;
  const auto cfg = star_config();
  const SimResult r = simulate(cfg, ch, sp);
  double worst = 0.0;
  for (const NodeResult& n : r.nodes) {
    if (n.location == cfg.routing.coordinator) continue;
    worst = std::max(worst, n.power_mw);
  }
  EXPECT_DOUBLE_EQ(r.worst_power_mw, worst);
  EXPECT_NEAR(r.nlt_s, cfg.battery_j / mw_to_w(worst), 1e-6);
}

TEST(Network, CoordinatorBurnsMoreButIsExcluded) {
  // The star coordinator relays everyone's packets: highest power in the
  // network, but the paper gives it a larger battery and excludes it.
  auto ch = uniform_channel(50.0);
  SimParams sp;
  sp.duration_s = 30.0;
  const auto cfg = star_config();
  const SimResult r = simulate(cfg, ch, sp);
  double coor_power = 0.0;
  for (const NodeResult& n : r.nodes) {
    if (n.location == cfg.routing.coordinator) coor_power = n.power_mw;
  }
  EXPECT_GT(coor_power, r.worst_power_mw);
}

TEST(Network, MeshNltCountsAllNodes) {
  auto ch = uniform_channel(50.0);
  SimParams sp;
  sp.duration_s = 30.0;
  const SimResult r = simulate(mesh_config(), ch, sp);
  double worst = 0.0;
  for (const NodeResult& n : r.nodes) worst = std::max(worst, n.power_mw);
  EXPECT_DOUBLE_EQ(r.worst_power_mw, worst);
}

TEST(Network, DeterministicBySeed) {
  SimParams sp;
  sp.duration_s = 20.0;
  sp.seed = 77;
  auto c1 = channel::make_default_body_channel(5);
  auto c2 = channel::make_default_body_channel(5);
  const SimResult a = simulate(star_config(model::MacProtocol::kCsma), *c1,
                               sp);
  const SimResult b = simulate(star_config(model::MacProtocol::kCsma), *c2,
                               sp);
  EXPECT_DOUBLE_EQ(a.pdr, b.pdr);
  EXPECT_DOUBLE_EQ(a.worst_power_mw, b.worst_power_mw);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.medium.transmissions, b.medium.transmissions);
}

TEST(Network, DifferentSeedsGiveDifferentRuns) {
  SimParams sp;
  sp.duration_s = 20.0;
  sp.seed = 1;
  auto c1 = channel::make_default_body_channel(5);
  const SimResult a = simulate(star_config(model::MacProtocol::kCsma), *c1,
                               sp);
  sp.seed = 2;
  auto c2 = channel::make_default_body_channel(6);
  const SimResult b = simulate(star_config(model::MacProtocol::kCsma), *c2,
                               sp);
  EXPECT_NE(a.pdr, b.pdr);
}

TEST(Network, GenerationGuardLimitsInFlightLoss) {
  // Packets stop `gen_guard_s` before the end: on a perfect channel the
  // PDR stays exactly 1 (no clipped tail).
  auto ch = uniform_channel(50.0);
  SimParams sp;
  sp.duration_s = 5.0;
  sp.gen_guard_s = 0.5;
  const SimResult r = simulate(star_config(), ch, sp);
  EXPECT_DOUBLE_EQ(r.pdr, 1.0);
  for (const NodeResult& n : r.nodes) {
    EXPECT_NEAR(static_cast<double>(n.app_sent), 45.0, 2.0);
  }
}

TEST(Network, RejectsBadInput) {
  auto ch = uniform_channel(50.0);
  SimParams sp;
  model::Scenario sc;
  // One-node network.
  const auto solo = sc.make_config(model::Topology::from_locations({0}), 0,
                                   model::MacProtocol::kCsma,
                                   model::RoutingProtocol::kMesh);
  EXPECT_THROW((void)simulate(solo, ch, sp), ModelError);
  // Star without its coordinator.
  const auto headless = sc.make_config(
      model::Topology::from_locations({1, 2, 3, 5}), 0,
      model::MacProtocol::kCsma, model::RoutingProtocol::kStar);
  EXPECT_THROW((void)simulate(headless, ch, sp), ModelError);
  // Duration shorter than the guard.
  sp.duration_s = 0.5;
  sp.gen_guard_s = 1.0;
  EXPECT_THROW((void)simulate(star_config(), ch, sp), ModelError);
}

TEST(Network, AveragedRunsReduceVariance) {
  SimParams sp;
  sp.duration_s = 20.0;
  sp.seed = 9;
  RunningStats spread;
  const SimResult avg = simulate_averaged(
      star_config(model::MacProtocol::kCsma), sp, 5,
      default_channel_factory(), &spread, nullptr);
  EXPECT_EQ(spread.count(), 5u);
  EXPECT_NEAR(avg.pdr, spread.mean(), 1e-12);
  EXPECT_GT(avg.pdr, 0.0);
  EXPECT_LT(avg.pdr, 1.0);  // body channel is lossy at 0 dBm
  // NLT consistent with the averaged power.
  EXPECT_NEAR(avg.nlt_s,
              star_config().battery_j / mw_to_w(avg.worst_power_mw), 1e-6);
}

/// Three radios on a static channel, attached in location order.
struct ThreeRadios {
  explicit ThreeRadios(const channel::PathLossMatrix& m)
      : channel(m), medium(kernel, channel) {
    for (int i = 0; i < 3; ++i) {
      radios.push_back(std::make_unique<Radio>(kernel, medium, i,
                                               RadioParams{}));
      medium.attach(radios.back().get());
    }
  }
  Radio& radio(int i) { return *radios[static_cast<std::size_t>(i)]; }

  des::Kernel kernel;
  channel::StaticChannel channel;
  Medium medium;
  std::vector<std::unique_ptr<Radio>> radios;
};

Packet packet_from(int origin) {
  Packet p;
  p.origin = origin;
  p.sender = origin;
  p.visited = static_cast<std::uint16_t>(1u << origin);
  return p;
}

TEST(TransmissionEnd, SignalEndsRunInAttachOrderThenTxDoneThenNewEvents) {
  channel::PathLossMatrix m;
  m.set_db(0, 1, 60.0);
  m.set_db(0, 2, 60.0);
  // Radio 1's relay reaches radio 2 at -90 dBm: audible, but 30 dB under
  // the packet radio 2 is decoding, so it does not corrupt it.
  m.set_db(1, 2, 90.0);
  ThreeRadios w(m);
  std::vector<std::string> log;
  w.radio(1).on_receive = [&](const Packet& p) {
    log.push_back("rx1<" + std::to_string(p.sender));
    if (p.sender == 0) {
      // A same-time transmission from inside the transmission-end event:
      // it takes a second receiver list while the first is being walked.
      w.radio(1).transmit(packet_from(1));
      w.kernel.schedule_in(0.0, [&] { log.push_back("after-rx1"); });
    }
  };
  w.radio(2).on_receive = [&](const Packet& p) {
    log.push_back("rx2<" + std::to_string(p.sender));
  };
  w.radio(0).on_tx_done = [&] {
    log.push_back("tx0-done");
    w.kernel.schedule_in(0.0, [&] { log.push_back("after-tx0"); });
  };
  w.radio(1).on_tx_done = [&] { log.push_back("tx1-done"); };

  w.radio(0).transmit(packet_from(0));
  w.kernel.run_to_completion();

  // Signal ends in attach order, then the sender's tx-done, then what
  // their handlers scheduled at that instant; radio 2 misses radio 1's
  // relay (it is decoding) and radio 0 misses it (it is still sending).
  const std::vector<std::string> want = {"rx1<0",    "rx2<0",     "tx0-done",
                                         "after-rx1", "after-tx0", "tx1-done"};
  EXPECT_EQ(log, want);
  EXPECT_EQ(w.radio(2).stats().rx_missed, 1u);
  EXPECT_EQ(w.radio(0).stats().rx_missed, 1u);
  // One event per signal end (2 + 2) and per finish (2), plus the two
  // scheduled ones; the kernel dispatched one handler per transmission
  // end.
  EXPECT_EQ(w.medium.stats().deliveries_offered, 4u);
  EXPECT_EQ(w.kernel.events_processed(), 8u);
  EXPECT_EQ(w.kernel.dispatches(), 4u);
}

TEST(TransmissionEnd, UnheardTransmissionStillFinishes) {
  channel::PathLossMatrix m;
  m.set_db(0, 1, 150.0);
  m.set_db(0, 2, 150.0);
  m.set_db(1, 2, 150.0);
  ThreeRadios w(m);
  int done = 0;
  w.radio(0).on_tx_done = [&] { ++done; };
  w.radio(0).transmit(packet_from(0));
  EXPECT_TRUE(w.radio(0).transmitting());
  w.kernel.run_to_completion();
  EXPECT_EQ(done, 1);
  EXPECT_FALSE(w.radio(0).transmitting());
  EXPECT_EQ(w.medium.stats().below_sensitivity, 2u);
  EXPECT_EQ(w.kernel.events_processed(), 1u);
  EXPECT_EQ(w.kernel.dispatches(), 1u);
}

/// A uniform 60 dB channel that records every batched call's
/// transmitter and receiver list.
class RecordingChannel final : public channel::ChannelModel {
 public:
  struct Call {
    int tx;
    std::vector<int> rx;
  };

  double path_loss_db(int /*i*/, int /*j*/, double /*t*/) override {
    return 60.0;
  }
  void path_loss_batch_db(int i, const int* js, std::size_t n, double t,
                          double* out) override {
    calls.push_back(Call{i, std::vector<int>(js, js + n)});
    ChannelModel::path_loss_batch_db(i, js, n, t, out);
  }
  [[nodiscard]] double mean_path_loss_db(int /*i*/, int /*j*/) const override {
    return 60.0;
  }

  std::vector<Call> calls;
};

/// `order` without `id`.
std::vector<int> all_but(const std::vector<int>& order, int id) {
  std::vector<int> out;
  for (const int x : order) {
    if (x != id) out.push_back(x);
  }
  return out;
}

TEST(FanOut, RowsListTheOtherRadiosInAttachOrder) {
  des::Kernel kernel;
  RecordingChannel ch;
  Medium medium(kernel, ch);
  const std::vector<int> order = {5, 2, 7, 0};
  std::vector<std::unique_ptr<Radio>> radios;
  for (const int loc : order) {
    radios.push_back(std::make_unique<Radio>(kernel, medium, loc,
                                             RadioParams{}));
    medium.attach(radios.back().get());
  }
  for (std::size_t k = 0; k < radios.size(); ++k) {
    radios[k]->transmit(packet_from(order[k]));
    kernel.run_to_completion();
  }
  ASSERT_EQ(ch.calls.size(), order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(ch.calls[k].tx, order[k]);
    EXPECT_EQ(ch.calls[k].rx, all_but(order, order[k])) << "sender " << k;
  }
}

TEST(FanOut, TwoBodyRowsSpanBothBodiesInAttachOrder) {
  des::Kernel kernel;
  RecordingChannel ch;
  Medium medium(kernel, ch);
  // Body 1 attached first, then body 0; channel id = body * 10 + loc.
  const std::vector<int> order = {10, 13, 0, 3, 16};
  std::vector<std::unique_ptr<Radio>> radios;
  for (const int id : order) {
    radios.push_back(std::make_unique<Radio>(kernel, medium, id % 10,
                                             RadioParams{}, nullptr, id / 10,
                                             id));
    medium.attach(radios.back().get());
  }
  for (std::size_t k = 0; k < radios.size(); ++k) {
    radios[k]->transmit(packet_from(order[k] % 10));
    kernel.run_to_completion();
  }
  ASSERT_EQ(ch.calls.size(), order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(ch.calls[k].tx, order[k]);
    EXPECT_EQ(ch.calls[k].rx, all_but(order, order[k])) << "sender " << k;
  }
  // Every packet was offered to each radio of the other body.
  EXPECT_EQ(medium.stats().cross_offered, 2u * 3u + 3u * 2u);
}

TEST(FanOut, SimulatedBodyRowsAreTheOtherNodes) {
  RecordingChannel ch;
  SimParams sp;
  sp.duration_s = 2.0;
  (void)simulate(star_config(model::MacProtocol::kCsma), ch, sp);
  const std::vector<int> nodes = {0, 1, 3, 5};
  ASSERT_FALSE(ch.calls.empty());
  for (const RecordingChannel::Call& c : ch.calls) {
    ASSERT_EQ(c.rx, all_but(nodes, c.tx));
  }
}

TEST(FanOut, RadioAttachedAfterAFirstTransmissionJoinsLaterRows) {
  des::Kernel kernel;
  RecordingChannel ch;
  Medium medium(kernel, ch);
  std::vector<std::unique_ptr<Radio>> radios;
  const auto add = [&](int loc) {
    radios.push_back(std::make_unique<Radio>(kernel, medium, loc,
                                             RadioParams{}));
    medium.attach(radios.back().get());
    return radios.back().get();
  };
  Radio* first = add(0);
  add(1);
  first->transmit(packet_from(0));
  kernel.run_to_completion();
  Radio* late = add(4);
  int late_got = 0;
  late->on_receive = [&](const Packet&) { ++late_got; };
  first->transmit(packet_from(0));
  kernel.run_to_completion();
  late->transmit(packet_from(4));
  kernel.run_to_completion();
  ASSERT_EQ(ch.calls.size(), 3u);
  EXPECT_EQ(ch.calls[0].rx, (std::vector<int>{1}));
  EXPECT_EQ(ch.calls[1].rx, (std::vector<int>{1, 4}));
  EXPECT_EQ(ch.calls[2].tx, 4);
  EXPECT_EQ(ch.calls[2].rx, (std::vector<int>{0, 1}));
  EXPECT_EQ(late_got, 1);
  EXPECT_THROW(add(1), ModelError);  // channel ids stay distinct
}

TEST(Decode, HandlerSeesItsPacketAcrossASameTimeTransmissionItHears) {
  channel::PathLossMatrix m;
  m.set_db(0, 1, 60.0);
  m.set_db(0, 2, 150.0);  // radio 2 does not hear radio 0
  m.set_db(1, 2, 60.0);
  ThreeRadios w(m);
  std::vector<std::pair<int, std::uint32_t>> got;
  w.radio(1).on_receive = [&](const Packet& p) {
    if (p.origin == 0) {
      // Radio 1 is idle again, so it starts decoding this one at once.
      Packet q = packet_from(2);
      q.seq = 99;
      w.radio(2).transmit(q);
    }
    got.emplace_back(p.origin, p.seq);
  };
  Packet p = packet_from(0);
  p.seq = 7;
  w.radio(0).transmit(p);
  w.kernel.run_to_completion();
  const std::vector<std::pair<int, std::uint32_t>> want = {{0, 7u}, {2, 99u}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(w.radio(1).stats().rx_ok, 2u);
}

}  // namespace
}  // namespace hi::net
