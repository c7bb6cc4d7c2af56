// hi::crowd behavioural contracts (DESIGN.md §15): determinism,
// body-relabeling invariance, thread-count invariance of the sweep,
// the full des.* / net.* counter set of a multi-body run, sweep and
// scenario input validation, store-backed resume, the crowd scenario JSON codec + fingerprints,
// the evaluation crowd tail, and the kernel's pending-event
// reservation.  Everything bitwise here is compared as uint64 bit
// patterns — no tolerances.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "channel/crowd_channel.hpp"
#include "common/assert.hpp"
#include "crowd/crowd.hpp"
#include "des/kernel.hpp"
#include "model/design_space.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "store/crowd_codec.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"

namespace hi {
namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

model::NetworkConfig star_csma_n4() {
  const model::Scenario scenario;
  return scenario.make_config(model::Topology::from_locations({0, 1, 3, 5}), 1,
                              model::MacProtocol::kCsma,
                              model::RoutingProtocol::kStar);
}

model::CrowdScenario dense_crowd(int bodies) {
  model::CrowdScenario sc;
  sc.cfg = star_csma_n4();
  sc.bodies = bodies;
  sc.spacing_m = 0.5;
  return sc;
}

net::SimParams short_params(std::uint64_t seed = 2017) {
  net::SimParams sp;
  sp.duration_s = 5.0;
  sp.seed = seed;
  return sp;
}

void expect_same_result(const net::SimResult& a, const net::SimResult& b) {
  EXPECT_EQ(bits(a.pdr), bits(b.pdr));
  EXPECT_EQ(bits(a.worst_power_mw), bits(b.worst_power_mw));
  EXPECT_EQ(bits(a.mean_power_mw), bits(b.mean_power_mw));
  EXPECT_EQ(bits(a.nlt_s), bits(b.nlt_s));
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(bits(a.nodes[i].pdr), bits(b.nodes[i].pdr));
    EXPECT_EQ(bits(a.nodes[i].power_mw), bits(b.nodes[i].power_mw));
    EXPECT_EQ(a.nodes[i].app_sent, b.nodes[i].app_sent);
  }
}

TEST(Crowd, DeterministicAcrossRepeatedRuns) {
  const model::CrowdScenario sc = dense_crowd(3);
  const net::SimParams sp = short_params();
  const crowd::CrowdResult a =
      crowd::simulate_crowd(sc, *crowd::make_crowd_channel_for(sc, 7), sp);
  const crowd::CrowdResult b =
      crowd::simulate_crowd(sc, *crowd::make_crowd_channel_for(sc, 7), sp);
  expect_same_result(a.summary, b.summary);
  EXPECT_EQ(a.summary.events, b.summary.events);
  EXPECT_EQ(a.summary.crowd.foreign_heard, b.summary.crowd.foreign_heard);
  ASSERT_EQ(a.per_body.size(), b.per_body.size());
  for (std::size_t i = 0; i < a.per_body.size(); ++i) {
    expect_same_result(a.per_body[i], b.per_body[i]);
  }
}

TEST(Crowd, BodyRelabelingLeavesPerBodyResultsBitIdentical) {
  // Three bodies with distinct positions, listed in two different
  // orders.  perm[j] = index in the base list of the body that sits at
  // slot j of the permuted list.
  const std::vector<model::BodyPlacement> base_pos = {
      {0.0, 0.0}, {1.2, 0.4}, {0.3, 1.5}};
  const std::vector<int> perm = {2, 0, 1};

  model::CrowdScenario a = dense_crowd(3);
  a.placement = base_pos;
  model::CrowdScenario b = a;
  b.placement = {base_pos[perm[0]], base_pos[perm[1]], base_pos[perm[2]]};

  const net::SimParams sp = short_params(99);
  const crowd::CrowdResult ra =
      crowd::simulate_crowd(a, *crowd::make_crowd_channel_for(a, 11), sp);
  const crowd::CrowdResult rb =
      crowd::simulate_crowd(b, *crowd::make_crowd_channel_for(b, 11), sp);

  // The aggregate headline is permutation-invariant...
  EXPECT_EQ(bits(ra.summary.pdr), bits(rb.summary.pdr));
  EXPECT_EQ(bits(ra.summary.worst_power_mw), bits(rb.summary.worst_power_mw));
  EXPECT_EQ(bits(ra.summary.mean_power_mw), bits(rb.summary.mean_power_mw));
  EXPECT_EQ(bits(ra.summary.nlt_s), bits(rb.summary.nlt_s));
  EXPECT_EQ(ra.summary.events, rb.summary.events);
  EXPECT_EQ(bits(ra.summary.crowd.min_body_pdr),
            bits(rb.summary.crowd.min_body_pdr));
  EXPECT_EQ(ra.summary.crowd.foreign_heard, rb.summary.crowd.foreign_heard);
  // ...and each physical body's result is bit-identical wherever it
  // appears in the input list — both the full per_body entry and the
  // aggregate's per-body row (which reports in input order).
  for (int j = 0; j < 3; ++j) {
    SCOPED_TRACE(j);
    expect_same_result(rb.per_body[j], ra.per_body[perm[j]]);
    EXPECT_EQ(rb.summary.nodes[j].location, j);
    EXPECT_EQ(bits(rb.summary.nodes[j].pdr),
              bits(ra.summary.nodes[perm[j]].pdr));
    EXPECT_EQ(bits(rb.summary.nodes[j].power_mw),
              bits(ra.summary.nodes[perm[j]].power_mw));
  }
}

TEST(Crowd, SweepIsThreadCountInvariant) {
  const model::CrowdScenario base = dense_crowd(3);
  const net::SimParams sp = short_params();
  crowd::SweepResult ref;
  for (int threads : {0, 2, 4}) {
    SCOPED_TRACE(threads);
    crowd::SweepOptions opt;
    opt.bodies = {1, 2, 3};
    opt.runs = 1;
    opt.threads = threads;
    const crowd::SweepResult res = crowd::sweep(base, sp, opt);
    ASSERT_EQ(res.points.size(), 3u);
    if (threads == 0) {
      ref = res;
      continue;
    }
    for (std::size_t i = 0; i < res.points.size(); ++i) {
      EXPECT_EQ(res.points[i].bodies, ref.points[i].bodies);
      EXPECT_EQ(bits(res.points[i].eval.pdr), bits(ref.points[i].eval.pdr));
      EXPECT_EQ(bits(res.points[i].eval.power_mw),
                bits(ref.points[i].eval.power_mw));
      EXPECT_EQ(bits(res.points[i].eval.nlt_s), bits(ref.points[i].eval.nlt_s));
      EXPECT_EQ(res.points[i].eval.detail.events,
                ref.points[i].eval.detail.events);
    }
  }
}

TEST(Crowd, SweepResumesFromStoreWithoutResimulating) {
  const std::string path = "test_crowd_resume.store";
  std::remove(path.c_str());
  const model::CrowdScenario base = dense_crowd(3);
  const net::SimParams sp = short_params();

  crowd::SweepResult cold;
  {
    store::EvalStore store(path);
    crowd::SweepOptions opt;
    opt.bodies = {1, 2, 3};
    opt.runs = 1;
    opt.store = &store;
    cold = crowd::sweep(base, sp, opt);
    EXPECT_EQ(cold.simulations, 3u);
    EXPECT_EQ(cold.store_hits, 0u);
  }
  {
    store::EvalStore store(path);
    obs::MetricsRegistry metrics;
    crowd::SweepOptions opt;
    opt.bodies = {1, 2, 3};
    opt.runs = 1;
    opt.store = &store;
    opt.metrics = &metrics;
    const crowd::SweepResult warm = crowd::sweep(base, sp, opt);
    EXPECT_EQ(warm.simulations, 0u);
    EXPECT_EQ(warm.store_hits, 3u);
    for (std::size_t i = 0; i < warm.points.size(); ++i) {
      EXPECT_TRUE(warm.points[i].from_store);
      EXPECT_EQ(bits(warm.points[i].eval.pdr), bits(cold.points[i].eval.pdr));
      EXPECT_EQ(bits(warm.points[i].eval.power_mw),
                bits(cold.points[i].eval.power_mw));
      EXPECT_EQ(bits(warm.points[i].eval.detail.crowd.min_body_pdr),
                bits(cold.points[i].eval.detail.crowd.min_body_pdr));
    }
    EXPECT_EQ(metrics.counter("crowd.points").value(), 3u);
    EXPECT_EQ(metrics.counter("crowd.store_hits").value(), 3u);
    EXPECT_EQ(metrics.counter("dse.store_hits").value(), 3u);
    EXPECT_EQ(metrics.counter("crowd.simulations").value(), 0u);
  }
  std::remove(path.c_str());
}

TEST(Crowd, DenseCrowdCollapsesPdr) {
  const net::SimParams sp = short_params();
  const model::CrowdScenario one = dense_crowd(1);
  const model::CrowdScenario four = dense_crowd(4);
  const crowd::CrowdResult r1 =
      crowd::simulate_crowd(one, *crowd::make_crowd_channel_for(one, 5), sp);
  const crowd::CrowdResult r4 =
      crowd::simulate_crowd(four, *crowd::make_crowd_channel_for(four, 5), sp);
  EXPECT_GT(r4.summary.crowd.cross_offered, 0u);
  EXPECT_GT(r4.summary.crowd.foreign_heard, 0u);
  EXPECT_LT(r4.summary.pdr, r1.summary.pdr);
  EXPECT_LE(r4.summary.crowd.min_body_pdr, r4.summary.pdr);
}

TEST(Crowd, ToEvaluationCarriesHeadlineMetrics) {
  const model::CrowdScenario sc = dense_crowd(2);
  const crowd::CrowdResult cr = crowd::simulate_crowd(
      sc, *crowd::make_crowd_channel_for(sc, 3), short_params());
  const dse::Evaluation ev = crowd::to_evaluation(cr);
  EXPECT_EQ(bits(ev.pdr), bits(cr.summary.pdr));
  EXPECT_EQ(bits(ev.power_mw), bits(cr.summary.worst_power_mw));
  EXPECT_EQ(bits(ev.nlt_s), bits(cr.summary.nlt_s));
  EXPECT_TRUE(ev.detail.crowd.present);
  EXPECT_EQ(ev.detail.crowd.bodies, 2);
}

TEST(Crowd, MultiBodyRunRecordsTheSingleBodyCounterSet) {
  // One engine: a crowd run flushes the same des.* / net.* set as a
  // single-body run, summed over every node of every body.
  const model::CrowdScenario sc = dense_crowd(4);
  obs::MetricsRegistry metrics;
  net::SimParams sp = short_params();
  sp.metrics = &metrics;
  const crowd::CrowdResult cr =
      crowd::simulate_crowd(sc, *crowd::make_crowd_channel_for(sc, 5), sp);
  std::uint64_t tx = 0, mac_sent = 0, app_sent = 0;
  ASSERT_EQ(cr.summary.nodes.size(), 4u);
  for (const net::NodeResult& row : cr.summary.nodes) {
    tx += row.radio.tx_packets;
    mac_sent += row.mac.sent;
    app_sent += row.app_sent;
  }
  EXPECT_GT(tx, 0u);
  EXPECT_EQ(metrics.counter("net.radio.tx_packets").value(), tx);
  EXPECT_EQ(metrics.counter("net.mac.sent").value(), mac_sent);
  EXPECT_EQ(metrics.counter("net.app.sent").value(), app_sent);
  EXPECT_EQ(metrics.counter("net.medium.transmissions").value(),
            cr.summary.medium.transmissions);
  EXPECT_EQ(metrics.counter("des.events").value(), cr.summary.events);
  EXPECT_EQ(metrics.counter("net.runs").value(), 1u);
  EXPECT_EQ(metrics.counter("net.crowd_runs").value(), 1u);
  EXPECT_EQ(metrics.counter("net.crowd_bodies").value(), 4u);

  (void)crowd::simulate_crowd(sc, *crowd::make_crowd_channel_for(sc, 6), sp);
  EXPECT_EQ(metrics.counter("net.runs").value(), 2u);
  EXPECT_EQ(metrics.counter("net.crowd_runs").value(), 2u);
}

/// Records every batched call's transmitter and receiver list, then
/// samples the wrapped channel.
class RecordingChannel final : public channel::ChannelModel {
 public:
  explicit RecordingChannel(channel::ChannelModel& inner) : inner_(inner) {}

  double path_loss_db(int i, int j, double t) override {
    return inner_.path_loss_db(i, j, t);
  }
  void path_loss_batch_db(int i, const int* js, std::size_t n, double t,
                          double* out) override {
    calls.push_back({i, std::vector<int>(js, js + n)});
    inner_.path_loss_batch_db(i, js, n, t, out);
  }
  [[nodiscard]] double mean_path_loss_db(int i, int j) const override {
    return inner_.mean_path_loss_db(i, j);
  }

  std::vector<std::pair<int, std::vector<int>>> calls;

 private:
  channel::ChannelModel& inner_;
};

TEST(Crowd, TwoBodyFanOutListsEveryOtherRadioInAttachOrder) {
  const model::CrowdScenario sc = dense_crowd(2);
  const auto crowd_ch = crowd::make_crowd_channel_for(sc, 2017);
  RecordingChannel rec(*crowd_ch);
  (void)crowd::simulate_crowd(sc, rec, short_params());
  // Bodies are built in canonical order, each in topology order.
  const std::vector<int> radios = {0, 1, 3, 5, 10, 11, 13, 15};
  ASSERT_FALSE(rec.calls.empty());
  std::vector<bool> sent(radios.size(), false);
  for (const auto& [tx, rx] : rec.calls) {
    std::vector<int> want;
    for (std::size_t k = 0; k < radios.size(); ++k) {
      if (radios[k] == tx) {
        sent[k] = true;
      } else {
        want.push_back(radios[k]);
      }
    }
    ASSERT_EQ(rx, want) << "sender " << tx;
  }
  EXPECT_EQ(std::count(sent.begin(), sent.end(), true), 8);
}

TEST(Crowd, SweepRejectsNegativeThreads) {
  crowd::SweepOptions opt;
  opt.bodies = {1};
  opt.runs = 1;
  opt.threads = -1;
  EXPECT_THROW((void)crowd::sweep(dense_crowd(1), short_params(), opt),
               ModelError);
}

TEST(Crowd, ScenarioValidationRejectsBadInput) {
  model::CrowdScenario sc = dense_crowd(2);
  sc.bodies = 0;
  EXPECT_THROW(sc.validate(), ModelError);
  sc.bodies = 65;
  EXPECT_THROW(sc.validate(), ModelError);
  sc = dense_crowd(2);
  sc.spacing_m = 0.0;
  EXPECT_THROW(sc.validate(), ModelError);
  sc = dense_crowd(2);
  sc.placement = {{0.0, 0.0}};  // wrong size for bodies == 2
  EXPECT_THROW(sc.validate(), ModelError);
  sc = dense_crowd(2);
  sc.inter.exponent = 0.0;
  EXPECT_THROW(sc.validate(), ModelError);
}

TEST(CrowdCodec, ScenarioJsonRoundTripsExactly) {
  model::CrowdScenario sc = dense_crowd(3);
  sc.cols = 2;
  sc.inter.exponent = 3.5;
  sc.inter.sigma_db = 4.25;
  const std::string json = store::crowd_scenario_to_json(sc);
  std::string err;
  const auto back = store::crowd_scenario_from_json(json, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(*back, sc);
  EXPECT_EQ(store::crowd_fingerprint(*back).hex(),
            store::crowd_fingerprint(sc).hex());

  // Explicit placement survives the trip too.
  sc.placement = {{0.0, 0.0}, {0.5, 0.0}, {0.25, 0.75}};
  const auto back2 =
      store::crowd_scenario_from_json(store::crowd_scenario_to_json(sc), &err);
  ASSERT_TRUE(back2.has_value()) << err;
  EXPECT_EQ(*back2, sc);
}

TEST(CrowdCodec, RejectsMalformedScenarios) {
  std::string err;
  EXPECT_FALSE(store::crowd_scenario_from_json("not json", &err).has_value());
  EXPECT_FALSE(store::crowd_scenario_from_json("{}", &err).has_value());
  // Unknown keys are rejected, not ignored.
  model::CrowdScenario sc = dense_crowd(2);
  std::string json = store::crowd_scenario_to_json(sc);
  json.insert(json.find('{') + 1, "\"surprise\": 1,");
  EXPECT_FALSE(store::crowd_scenario_from_json(json, &err).has_value());
}

TEST(CrowdCodec, GridAndEquivalentExplicitPlacementFingerprintIdentically) {
  model::CrowdScenario grid = dense_crowd(4);
  grid.cols = 2;
  model::CrowdScenario explicit_sc = grid;
  explicit_sc.placement = grid.positions();
  EXPECT_EQ(store::crowd_fingerprint(grid).hex(),
            store::crowd_fingerprint(explicit_sc).hex());
}

TEST(CrowdCodec, PointFingerprintSeparatesBodiesRunsAndSeeds) {
  const net::SimParams sp = short_params();
  const model::CrowdScenario two = dense_crowd(2);
  const model::CrowdScenario three = dense_crowd(3);
  const auto base = store::crowd_point_fingerprint(two, sp, 3);
  EXPECT_NE(store::crowd_point_fingerprint(three, sp, 3).hex(), base.hex());
  EXPECT_NE(store::crowd_point_fingerprint(two, sp, 4).hex(), base.hex());
  net::SimParams sp2 = sp;
  sp2.seed = sp.seed + 1;
  EXPECT_NE(store::crowd_point_fingerprint(two, sp2, 3).hex(), base.hex());
  EXPECT_EQ(store::crowd_point_fingerprint(two, sp, 3).hex(), base.hex());
}

dse::Evaluation sample_eval(bool with_crowd, bool with_latency) {
  dse::Evaluation ev;
  ev.pdr = 0.875;
  ev.power_mw = 1.25;
  ev.nlt_s = 123456.5;
  ev.detail.pdr = 0.875;
  ev.detail.worst_power_mw = 1.25;
  ev.detail.mean_power_mw = 1.0;
  ev.detail.nlt_s = 123456.5;
  ev.detail.duration_s = 60.0;
  ev.detail.events = 4242;
  net::NodeResult n;
  n.location = 3;
  n.pdr = 0.75;
  n.power_mw = 1.5;
  n.app_sent = 100;
  ev.detail.nodes.push_back(n);
  if (with_latency) {
    ev.detail.latency.collected = true;
    ev.detail.latency.samples = 42;
    ev.detail.latency.mean_s = 0.01;
    ev.detail.latency.p50_s = 0.008;
    ev.detail.latency.p95_s = 0.02;
    ev.detail.latency.max_s = 0.05;
  }
  if (with_crowd) {
    ev.detail.crowd.present = true;
    ev.detail.crowd.bodies = 4;
    ev.detail.crowd.min_body_pdr = 0.5;
    ev.detail.crowd.cross_offered = 1000;
    ev.detail.crowd.cross_below_sensitivity = 10;
    ev.detail.crowd.foreign_heard = 900;
    ev.detail.crowd.foreign_decoded = 800;
  }
  return ev;
}

void expect_crowd_tail_roundtrip(bool with_latency) {
  const dse::Evaluation ev = sample_eval(true, with_latency);
  store::ByteWriter w;
  store::write_evaluation(w, ev);
  store::ByteReader r(w.bytes());
  dse::Evaluation back;
  ASSERT_TRUE(store::read_evaluation(r, back));
  EXPECT_TRUE(back.detail.crowd.present);
  EXPECT_EQ(back.detail.crowd.bodies, 4);
  EXPECT_EQ(bits(back.detail.crowd.min_body_pdr), bits(0.5));
  EXPECT_EQ(back.detail.crowd.cross_offered, 1000u);
  EXPECT_EQ(back.detail.crowd.cross_below_sensitivity, 10u);
  EXPECT_EQ(back.detail.crowd.foreign_heard, 900u);
  EXPECT_EQ(back.detail.crowd.foreign_decoded, 800u);
  EXPECT_EQ(back.detail.latency.collected, with_latency);
  if (with_latency) {
    EXPECT_EQ(back.detail.latency.samples, 42u);
    EXPECT_EQ(bits(back.detail.latency.p95_s), bits(0.02));
  }
  EXPECT_EQ(bits(back.pdr), bits(ev.pdr));
  EXPECT_EQ(back.detail.events, ev.detail.events);
}

TEST(CrowdSerialize, EvaluationCrowdTailRoundTripsWithoutLatency) {
  expect_crowd_tail_roundtrip(/*with_latency=*/false);
}

TEST(CrowdSerialize, EvaluationCrowdTailRoundTripsWithLatency) {
  expect_crowd_tail_roundtrip(/*with_latency=*/true);
}

TEST(CrowdSerialize, LegacyEvaluationStillReadsWithCrowdAbsent) {
  const dse::Evaluation ev = sample_eval(false, false);
  store::ByteWriter w;
  store::write_evaluation(w, ev);
  store::ByteReader r(w.bytes());
  dse::Evaluation back;
  ASSERT_TRUE(store::read_evaluation(r, back));
  EXPECT_FALSE(back.detail.crowd.present);
  EXPECT_EQ(back.detail.crowd.bodies, 0);
  EXPECT_EQ(bits(back.pdr), bits(ev.pdr));
}

TEST(CrowdSerialize, TrailingGarbageAfterLatencyTailIsRejected) {
  const dse::Evaluation ev = sample_eval(false, true);
  store::ByteWriter w;
  store::write_evaluation(w, ev);
  // Unmarked extra bytes after the latency tail must not silently pass
  // as a crowd tail.
  w.put_u64(0xDEADBEEF);
  store::ByteReader r(w.bytes());
  dse::Evaluation back;
  EXPECT_FALSE(store::read_evaluation(r, back));
}

TEST(KernelReserve, PreSizingChangesOnlyArenaChunks) {
  // Two kernels, identical workload, one pre-sized: execution order and
  // every counter except arena_chunks() must agree.
  auto run = [](des::Kernel& k, std::vector<double>& order) {
    for (int i = 0; i < 600; ++i) {
      const double t = static_cast<double>((i * 37) % 600) * 1e-3;
      k.schedule_at(t, [&order, t] { order.push_back(t); });
    }
    k.run_to_completion();
  };
  des::Kernel plain;
  std::vector<double> plain_order;
  run(plain, plain_order);

  des::Kernel reserved;
  reserved.reserve(1000);
  // 1000 pending events need ceil(1000 / 256) = 4 slabs up front.
  EXPECT_EQ(reserved.arena_chunks(), 4u);
  std::vector<double> reserved_order;
  run(reserved, reserved_order);

  EXPECT_EQ(plain_order, reserved_order);
  EXPECT_EQ(plain.events_processed(), reserved.events_processed());
  EXPECT_EQ(reserved.arena_chunks(), 4u);  // no mid-run growth
  EXPECT_LT(plain.arena_chunks(), 4u);     // grew lazily: 600 ≤ 3 slabs
}

}  // namespace
}  // namespace hi
