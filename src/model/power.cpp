#include "model/power.hpp"

#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace hi::model {

double packet_duration_s(const RadioConfig& radio, const AppConfig& app) {
  HI_REQUIRE(radio.bit_rate_bps > 0.0, "bit rate must be positive");
  HI_REQUIRE(app.packet_bytes > 0, "packet length must be positive");
  return hi::packet_duration_s(app.packet_bytes, radio.bit_rate_bps);
}

double mesh_retx_bound(int n_nodes) {
  HI_REQUIRE(n_nodes >= 2, "need at least two nodes, got " << n_nodes);
  const double n = n_nodes;
  return n * n - 4.0 * n + 5.0;
}

double per_round_radio_mw(const RadioConfig& radio, int n_nodes) {
  HI_REQUIRE(n_nodes >= 2, "need at least two nodes, got " << n_nodes);
  return radio.tx_mw + (n_nodes - 1) * radio.rx_mw;
}

double radio_power_mw(const RadioConfig& radio, const AppConfig& app,
                      RoutingProtocol routing, int n_nodes) {
  const double tpkt = packet_duration_s(radio, app);
  const double duty = app.throughput_pps * tpkt;
  if (routing == RoutingProtocol::kStar) {
    return duty * (radio.tx_mw + 2.0 * (n_nodes - 1) * radio.rx_mw);
  }
  return duty * mesh_retx_bound(n_nodes) *
         (radio.tx_mw + (n_nodes - 1) * radio.rx_mw);
}

double node_power_mw(const NetworkConfig& cfg) {
  return cfg.app.baseline_mw +
         radio_power_mw(cfg.radio, cfg.app, cfg.routing.protocol,
                        cfg.topology.count());
}

double lifetime_s(double battery_j, double power_mw) {
  HI_REQUIRE(battery_j > 0.0, "battery energy must be positive");
  HI_REQUIRE(power_mw > 0.0, "power must be positive");
  return battery_j / mw_to_w(power_mw);
}

double analytic_nlt_s(const NetworkConfig& cfg) {
  return lifetime_s(cfg.battery_j, node_power_mw(cfg));
}

double power_lower_bound_mw(const NetworkConfig& cfg, double pdr_min,
                            double kappa) {
  HI_REQUIRE(pdr_min >= 0.0 && pdr_min <= 1.0,
             "pdr_min must be in [0,1], got " << pdr_min);
  HI_REQUIRE(kappa > 0.0 && kappa <= 1.0,
             "kappa must be in (0,1], got " << kappa);
  // The uniform loss discount on the radio share of Eq. (9).
  const double p = node_power_mw(cfg);
  return cfg.app.baseline_mw + kappa * pdr_min * (p - cfg.app.baseline_mw);
}

double measured_power_floor_mw(const NetworkConfig& cfg, double pdr_min,
                               double duration_s, double gen_guard_s) {
  HI_REQUIRE(pdr_min >= 0.0 && pdr_min <= 1.0,
             "pdr_min must be in [0,1], got " << pdr_min);
  HI_REQUIRE(duration_s > gen_guard_s,
             "duration " << duration_s << " s must exceed the guard "
                         << gen_guard_s << " s");
  const int n = cfg.topology.count();
  const double airtime = packet_duration_s(cfg.radio, cfg.app);
  const double window_s = duration_s - gen_guard_s;
  // Worst-phase periodic generation over the guarded window, then the
  // round-robin split across the N-1 peers (floor of the worst case).
  const double sent_node_min =
      std::max(0.0, window_s * cfg.app.throughput_pps - 1.0);
  const double sent_pair_min =
      std::floor(std::max(0.0, (sent_node_min - (n - 2)) / (n - 1)));
  if (sent_pair_min <= 0.0) {
    return cfg.app.baseline_mw;  // too short to force any traffic
  }
  // Every pair saw at least sent_pair_min originals, so a network PDR of
  // pdr_min forces this many distinct deliveries in total ...
  const double delivered_min = pdr_min * n * (n - 1) * sent_pair_min;
  // ... each costing its origin one transmission and its destination one
  // full-airtime decode.  Under star routing the coordinator's radio is
  // excluded from the lifetime metric: subtract the deliveries it could
  // have originated (<= its generation count) and those addressed to it
  // (<= (N-1) worst-phase pair maxima).
  const double sent_node_max = window_s * cfg.app.throughput_pps + 1.0;
  double tx_packets = delivered_min;
  double rx_packets = delivered_min;
  double metered_nodes = n;
  if (cfg.routing.protocol == RoutingProtocol::kStar) {
    metered_nodes = n - 1;
    tx_packets -= sent_node_max;
    rx_packets -= sent_node_max + (n - 2);
  }
  const double energy_mj =
      airtime * (std::max(0.0, tx_packets) * cfg.radio.tx_mw +
                 std::max(0.0, rx_packets) * cfg.radio.rx_mw);
  return cfg.app.baseline_mw + energy_mj / (metered_nodes * duration_s);
}

int robust_link_count(RoutingProtocol routing, int n_nodes) {
  HI_REQUIRE(n_nodes >= 2, "need at least two nodes, got " << n_nodes);
  return routing == RoutingProtocol::kStar ? n_nodes - 1
                                           : n_nodes * (n_nodes - 1) / 2;
}

double robust_link_deviation_mw(const RadioConfig& radio, const AppConfig& app,
                                int n_nodes) {
  return kRobustLossDeviation * app.throughput_pps *
         packet_duration_s(radio, app) * per_round_radio_mw(radio, n_nodes);
}

double robust_protection_mw(const RadioConfig& radio, const AppConfig& app,
                            RoutingProtocol routing, int n_nodes, int gamma) {
  if (gamma <= 0) {
    return 0.0;
  }
  const int budget = std::min(gamma, robust_link_count(routing, n_nodes));
  return budget * robust_link_deviation_mw(radio, app, n_nodes);
}

double robust_protection_mw(const NetworkConfig& cfg, int gamma) {
  return robust_protection_mw(cfg.radio, cfg.app, cfg.routing.protocol,
                              cfg.topology.count(), gamma);
}

double alpha_factor(const NetworkConfig& cfg, double pdr_min, double kappa) {
  const double p = node_power_mw(cfg);
  const double lb = power_lower_bound_mw(cfg, pdr_min, kappa);
  HI_ASSERT(lb > 0.0);
  // At kappa * pdr_min = 1, Pbl + (p - Pbl) may round one ulp above p.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  HI_ASSERT_MSG(lb <= std::nextafter(p, kInf),
                "analytic power " << p << " below lower bound " << lb);
  return p / lb;
}

}  // namespace hi::model
