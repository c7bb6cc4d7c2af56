#include "check/invariants.hpp"

#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace hi::check {

namespace {

/// Relative-or-absolute closeness for recomputed doubles.  The audited
/// quantities are recomputed with the same formulas the simulator uses,
/// so the slack only has to absorb reassociation, not modelling error.
bool close(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol * (1.0 + std::fabs(a) + std::fabs(b));
}

class Audit {
 public:
  Audit(const model::NetworkConfig& cfg, const net::SimParams& params,
        const net::SimResult& res, const obs::Snapshot& metrics,
        const std::vector<obs::TraceEvent>& trace)
      : cfg_(cfg), params_(params), res_(res), m_(metrics), trace_(trace) {
    for (const net::NodeResult& nr : res_.nodes) {
      net::add_node_counts(totals_, nr);
    }
  }

  std::vector<std::string> run() {
    check_reliability();
    check_energy_power();
    check_conservation();
    check_trace();
    return std::move(violations_);
  }

 private:
  template <typename... Parts>
  void fail(Parts&&... parts) {
    std::ostringstream oss;
    (oss << ... << parts);
    violations_.push_back(oss.str());
  }

  void check_reliability() {
    if (!(res_.pdr >= 0.0 && res_.pdr <= 1.0)) {
      fail("network PDR ", res_.pdr, " outside [0, 1]");
    }
    double sum = 0.0;
    for (const net::NodeResult& nr : res_.nodes) {
      if (!(nr.pdr >= 0.0 && nr.pdr <= 1.0)) {
        fail("node ", nr.location, " PDR ", nr.pdr, " outside [0, 1]");
      }
      sum += nr.pdr;
    }
    if (!res_.nodes.empty() &&
        !close(res_.pdr, sum / static_cast<double>(res_.nodes.size()))) {
      fail("network PDR ", res_.pdr, " is not the mean of the node PDRs ",
           sum / static_cast<double>(res_.nodes.size()));
    }
  }

  void check_energy_power() {
    double worst = 0.0;
    for (const net::NodeResult& nr : res_.nodes) {
      if (nr.power_mw < cfg_.app.baseline_mw - 1e-12) {
        fail("node ", nr.location, " power ", nr.power_mw,
             " mW below the baseline ", cfg_.app.baseline_mw,
             " mW (negative radio energy)");
      }
      const bool is_coordinator =
          cfg_.routing.protocol == model::RoutingProtocol::kStar &&
          nr.location == cfg_.routing.coordinator;
      if (!is_coordinator) {
        worst = std::max(worst, nr.power_mw);
      }
    }
    if (!close(res_.worst_power_mw, worst)) {
      fail("worst power ", res_.worst_power_mw,
           " mW does not match the recomputed lifetime-relevant maximum ",
           worst, " mW");
    }
    if (worst > 0.0) {
      const double nlt = cfg_.battery_j / mw_to_w(worst);
      if (!close(res_.nlt_s, nlt)) {
        fail("network lifetime ", res_.nlt_s, " s does not match Eq. (4) ",
             nlt, " s");
      }
    }
  }

  void check_conservation() {
    const std::uint64_t n = res_.nodes.size();
    const net::NodeResult& t = totals_;
    const std::uint64_t mac_sent = t.mac.sent, mac_enq = t.mac.enqueued,
                        mac_drop = t.mac.dropped_buffer,
                        radio_tx = t.radio.tx_packets,
                        rx_outcomes = t.radio.rx_ok + t.radio.rx_corrupted +
                                      t.radio.rx_missed + t.radio.rx_aborted,
                        originated = t.routing.originated,
                        delivered = t.routing.delivered,
                        relayed = t.routing.relayed;
    const net::MediumStats& med = res_.medium;
    if (mac_sent != radio_tx || radio_tx != med.transmissions) {
      fail("tx conservation: mac.sent ", mac_sent, " != radio.tx ", radio_tx,
           " != medium.transmissions ", med.transmissions);
    }
    if (n >= 1 && med.deliveries_offered + med.below_sensitivity !=
                      med.transmissions * (n - 1)) {
      fail("medium conservation: offered ", med.deliveries_offered,
           " + below_sensitivity ", med.below_sensitivity,
           " != transmissions * (N-1) = ", med.transmissions * (n - 1));
    }
    if (rx_outcomes > med.deliveries_offered) {
      fail("rx conservation: decode outcomes ", rx_outcomes,
           " exceed deliveries offered ", med.deliveries_offered);
    }
    if (mac_sent + mac_drop > mac_enq) {
      fail("mac conservation: sent ", mac_sent, " + dropped ", mac_drop,
           " exceed enqueued ", mac_enq);
    }
    if (mac_enq != originated + relayed) {
      fail("mac/routing conservation: enqueued ", mac_enq,
           " != originated ", originated, " + relayed ", relayed);
    }
    if (delivered > originated) {
      fail("app conservation: delivered ", delivered,
           " exceeds originated ", originated);
    }
    // The per-run metric counters must mirror the SimResult stats — one
    // source of truth, two transports.
    const auto counter_is = [&](const char* name, std::uint64_t want) {
      const std::uint64_t got = m_.counter(name);
      if (got != want) {
        fail("counter ", name, " = ", got, " but SimResult says ", want);
      }
    };
    counter_is("net.runs", 1);
    counter_is("des.events", res_.events);
    counter_is("net.medium.transmissions", med.transmissions);
    counter_is("net.medium.deliveries_offered", med.deliveries_offered);
    counter_is("net.medium.below_sensitivity", med.below_sensitivity);
    // The kernel runs at most one handler per event, and only a
    // transmission end folds events into one handler: one per signal end,
    // so the folded events never exceed the deliveries offered.
    const std::uint64_t events = m_.counter("des.events"),
                        dispatches = m_.counter("des.dispatches");
    if (dispatches > events) {
      fail("des.dispatches ", dispatches, " exceed des.events ", events);
    } else if (events - dispatches > med.deliveries_offered) {
      fail("des.events ", events, " - des.dispatches ", dispatches,
           " exceed deliveries offered ", med.deliveries_offered);
    }
    counter_is("net.radio.tx_packets", radio_tx);
    counter_is("net.mac.sent", mac_sent);
    counter_is("net.mac.enqueued", mac_enq);
    counter_is("net.mac.dropped_buffer", mac_drop);
  }

  void check_trace() {
    double last_t = 0.0;
    std::uint64_t tx = 0, rx_ok = 0, drops = 0, backoffs = 0, dwell = 0,
                  energy = 0, kernel = 0;
    std::uint64_t kernel_events = 0, kernel_cancelled = 0;
    double kernel_heap = 0.0;
    double energy_power_mismatch = -1.0;
    for (const obs::TraceEvent& e : trace_) {
      if (e.t_s < last_t - 1e-12) {
        fail("trace time went backwards: ", e.t_s, " after ", last_t,
             " (kind ", obs::to_string(e.kind), ")");
        break;  // one report is enough; later counts would be noise
      }
      last_t = std::max(last_t, e.t_s);
      if (e.t_s < 0.0 || e.t_s > params_.duration_s + 1e-12) {
        fail("trace time ", e.t_s, " outside [0, ", params_.duration_s, "]");
      }
      switch (e.kind) {
        case obs::TraceKind::kTx:
          ++tx;
          if (e.y <= 0.0) fail("tx with nonpositive airtime ", e.y);
          if (e.x <= 0.0) fail("tx with nonpositive size ", e.x);
          break;
        case obs::TraceKind::kRxOk:
          ++rx_ok;
          break;
        case obs::TraceKind::kRxCollision:
          break;
        case obs::TraceKind::kDropBuffer:
          ++drops;
          break;
        case obs::TraceKind::kBackoff:
          ++backoffs;
          if (e.x < 0.0) fail("backoff with negative wait ", e.x);
          break;
        case obs::TraceKind::kRadioDwell:
          ++dwell;
          if (e.x < -1e-12 || e.y < -1e-12) {
            fail("node ", e.node, " negative radio dwell tx=", e.x,
                 " rx=", e.y);
          }
          break;
        case obs::TraceKind::kNodeEnergy: {
          ++energy;
          if (e.x < 0.0 || e.y < 0.0) {
            fail("node ", e.node, " negative energy tx=", e.x, " rx=", e.y,
                 " mJ");
          }
          // Cross-check against the node's reported power.
          for (const net::NodeResult& nr : res_.nodes) {
            if (nr.location != e.node) continue;
            const double want =
                cfg_.app.baseline_mw + (e.x + e.y) / params_.duration_s;
            if (!close(nr.power_mw, want)) {
              energy_power_mismatch = want;
              fail("node ", e.node, " power ", nr.power_mw,
                   " mW does not match traced energy -> ", want, " mW");
            }
          }
          break;
        }
        case obs::TraceKind::kKernel:
          ++kernel;
          kernel_events = static_cast<std::uint64_t>(e.a);
          kernel_cancelled = static_cast<std::uint64_t>(e.x);
          kernel_heap = e.y;
          break;
      }
    }
    (void)energy_power_mismatch;
    const std::uint64_t n = res_.nodes.size();
    const std::uint64_t want_rx = totals_.radio.rx_ok,
                        want_drops = totals_.mac.dropped_buffer,
                        want_backoffs = totals_.mac.backoffs;
    if (tx != res_.medium.transmissions) {
      fail("trace tx count ", tx, " != medium.transmissions ",
           res_.medium.transmissions);
    }
    if (rx_ok != want_rx) {
      fail("trace rx_ok count ", rx_ok, " != radio.rx_ok sum ", want_rx);
    }
    if (drops != want_drops) {
      fail("trace drop_buffer count ", drops, " != mac.dropped_buffer sum ",
           want_drops);
    }
    if (backoffs != want_backoffs) {
      fail("trace backoff count ", backoffs, " != mac.backoffs sum ",
           want_backoffs);
    }
    if (dwell != n || energy != n) {
      fail("expected one radio_dwell and one node_energy record per node (",
           n, "), saw ", dwell, " and ", energy);
    }
    if (kernel != 1) {
      fail("expected exactly one kernel summary record, saw ", kernel);
    } else {
      if (kernel_events != res_.events ||
          kernel_events != m_.counter("des.events")) {
        fail("kernel events disagree: trace ", kernel_events, ", SimResult ",
             res_.events, ", des.events counter ", m_.counter("des.events"));
      }
      if (kernel_cancelled != m_.counter("des.cancelled")) {
        fail("kernel cancels disagree: trace ", kernel_cancelled,
             ", des.cancelled counter ", m_.counter("des.cancelled"));
      }
      if (kernel_heap != m_.gauge("des.heap_highwater")) {
        fail("kernel heap high-water disagrees: trace ", kernel_heap,
             ", des.heap_highwater gauge ",
             m_.gauge("des.heap_highwater"));
      }
    }
  }

  const model::NetworkConfig& cfg_;
  const net::SimParams& params_;
  const net::SimResult& res_;
  const obs::Snapshot& m_;
  const std::vector<obs::TraceEvent>& trace_;
  net::NodeResult totals_;  ///< app/radio/MAC/routing counts, all nodes
  std::vector<std::string> violations_;
};

}  // namespace

std::vector<std::string> audit_run(const model::NetworkConfig& cfg,
                                   const net::SimParams& params,
                                   const net::SimResult& res,
                                   const obs::Snapshot& metrics,
                                   const std::vector<obs::TraceEvent>& trace) {
  return Audit(cfg, params, res, metrics, trace).run();
}

AuditedRun audited_simulate(const model::NetworkConfig& cfg,
                            net::SimParams params,
                            const net::ChannelFactory& make_channel) {
  obs::MetricsRegistry registry;
  obs::MemoryTraceSink sink;
  const obs::RunTrace trace(&sink);
  params.metrics = &registry;
  params.trace = &trace;
  const std::uint64_t channel_seed =
      params.channel_seed != 0 ? params.channel_seed : params.seed;
  const auto channel = make_channel(channel_seed);
  AuditedRun out;
  out.result = net::simulate(cfg, *channel, params);
  out.metrics = registry.snapshot();
  out.trace = sink.events();
  out.violations =
      audit_run(cfg, params, out.result, out.metrics, out.trace);
  return out;
}

}  // namespace hi::check
