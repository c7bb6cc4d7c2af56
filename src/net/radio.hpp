// hi-opt: the physical layer.
//
// A Radio is half-duplex: it either transmits, decodes at most one
// incoming signal, or idles.  Reception uses a capture model: the signal
// being decoded survives interference as long as it stays `capture_db`
// above the strongest overlapping signal; otherwise it is marked
// corrupted (collision).  Signals that arrive while the radio is already
// decoding or transmitting are missed.  Energy is metered per packet
// event — TxmW for the transmit duration, RxmW for the time spent
// decoding — matching the paper's Eq. (3) accounting, which charges
// packet transactions rather than idle listening.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "des/kernel.hpp"
#include "net/packet.hpp"
#include "obs/trace.hpp"

namespace hi::net {

/// Physical-layer parameters of one radio instance.
struct RadioParams {
  double tx_dbm = 0.0;       ///< transmit output power
  double tx_mw = 18.3;       ///< power drawn while transmitting
  double sensitivity_dbm = -97.0;
  double rx_mw = 17.7;       ///< power drawn while decoding
  double bit_rate_bps = 1.024e6;
  double capture_db = 10.0;  ///< SIR needed to survive interference
};

/// Per-radio event counters.
struct RadioStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_ok = 0;         ///< decoded successfully
  std::uint64_t rx_corrupted = 0;  ///< collision while decoding
  std::uint64_t rx_missed = 0;     ///< audible but radio was busy
  std::uint64_t rx_aborted = 0;    ///< decode cut short by own transmit
};

/// Coexistence counters, kept apart from RadioStats so single-body runs
/// (and the store's legacy per-node byte layout) are untouched.  A
/// foreign signal — one transmitted by another body's network — still
/// occupies the radio, costs decode energy, and interferes with local
/// packets through the capture model; these counters record that load.
struct RadioCrowdStats {
  std::uint64_t foreign_heard = 0;    ///< foreign signals above sensitivity
  std::uint64_t foreign_decoded = 0;  ///< foreign packets decoded then dropped
};

class Medium;

/// See file comment.  One Radio per node; owned by the Node, wired to the
/// shared Medium by the Network builder.
class Radio {
 public:
  /// `trace`, when non-null, receives `rx_ok` / `rx_collision`
  /// TraceEvents per decode outcome (null = no tracing, zero cost).
  /// `net_id` names the network (body) the radio belongs to; signals
  /// from other net_ids are interference only, never delivered upward.
  /// `channel_id` is the radio's identity in the ChannelModel's index
  /// space (crowd: body * kNumLocations + location); the default -1
  /// uses `location`, the single-body convention.
  Radio(des::Kernel& kernel, Medium& medium, int location,
        const RadioParams& params, const obs::RunTrace* trace = nullptr,
        int net_id = 0, int channel_id = -1);

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  /// Callback invoked with each successfully decoded packet (set by MAC).
  std::function<void(const Packet&)> on_receive;

  /// Callback invoked when a transmission completes (set by MAC).
  std::function<void()> on_tx_done;

  /// Starts transmitting `p`.  Must not already be transmitting.  Any
  /// in-progress decode is aborted (half duplex).
  void transmit(const Packet& p);

  /// True while a transmission is in progress.
  [[nodiscard]] bool transmitting() const { return transmitting_; }

  /// Carrier sense: true when transmitting or when at least one signal
  /// above sensitivity is on the air at this radio.
  [[nodiscard]] bool channel_busy() const {
    return transmitting_ || !audible_.empty();
  }

  /// Air time of a packet of `bytes` at this radio's bit rate.
  [[nodiscard]] double packet_airtime_s(int bytes) const;

  [[nodiscard]] int location() const { return location_; }
  [[nodiscard]] int net_id() const { return net_id_; }
  [[nodiscard]] int channel_id() const { return channel_id_; }
  [[nodiscard]] const RadioParams& params() const { return params_; }
  [[nodiscard]] const RadioStats& stats() const { return stats_; }
  [[nodiscard]] const RadioCrowdStats& crowd_stats() const { return crowd_; }
  [[nodiscard]] double tx_energy_mj() const { return tx_energy_mj_; }
  [[nodiscard]] double rx_energy_mj() const { return rx_energy_mj_; }

  // --- Medium-facing interface -------------------------------------------
  /// A signal with receive power `rx_dbm` (already >= sensitivity) starts.
  /// `foreign` marks signals from another network (body): they occupy
  /// the radio and interfere exactly like local ones, but are dropped
  /// after decode and never reach on_receive, and their busy/missed
  /// accounting lands in crowd_stats() instead of RadioStats.
  void signal_start(std::uint64_t tx_id, double rx_dbm, const Packet& p,
                    bool foreign = false);

  /// The signal `tx_id` ends; delivers the packet if decoding succeeded.
  void signal_end(std::uint64_t tx_id);

  /// This radio's own transmission ends (called by the Medium after the
  /// transmission's signal ends); fires on_tx_done.
  void finish_transmit();

 private:
  /// A signal on the air at this radio.  Only the decoded signal's
  /// packet matters, so it lives in decode_packet_, not here.
  struct Signal {
    std::uint64_t tx_id;
    double rx_dbm;
    bool foreign;
  };

  [[nodiscard]] Signal* find_signal(std::uint64_t tx_id);

  des::Kernel& kernel_;
  Medium& medium_;
  int location_;
  int net_id_;
  int channel_id_;
  RadioParams params_;
  const obs::RunTrace* trace_;

  bool transmitting_ = false;
  /// Signals currently on the air at this radio.  A handful at most
  /// (bounded by the node count), so a flat vector with swap-remove
  /// beats a hash map; iteration order feeds only an order-independent
  /// interference OR, so determinism is unaffected (DESIGN.md §11).
  std::vector<Signal> audible_;

  bool decoding_ = false;
  std::uint64_t current_rx_id_ = 0;
  /// The packet being decoded, copied once when the decode starts.
  Packet decode_packet_;
  bool current_corrupted_ = false;
  double decode_start_ = 0.0;

  double tx_energy_mj_ = 0.0;
  double rx_energy_mj_ = 0.0;
  RadioStats stats_;
  RadioCrowdStats crowd_;
};

}  // namespace hi::net
