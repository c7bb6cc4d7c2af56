// hi-opt: the shared wireless medium around the body.
//
// The Medium connects every Radio through the (time-varying) channel
// model: when a radio transmits, each other radio's instantaneous receive
// power is  TxdBm - PL(i,j,t), sampled once at transmission start (the
// fade is effectively constant over a <1 ms packet).  Radios whose
// receive power clears their sensitivity get signal_start/signal_end
// callbacks; the rest never hear the packet (counted as propagation
// losses).  This mirrors the paper's successful-reception condition
// TxdBm >= RxdBm + PL(i,j,t).
#pragma once

#include <cstdint>
#include <vector>

#include "channel/channel.hpp"
#include "des/kernel.hpp"
#include "net/packet.hpp"
#include "obs/trace.hpp"

namespace hi::net {

class Radio;

/// Medium-wide counters.  The cross_* fields count the subset of pairs
/// whose transmitter and receiver belong to different networks (bodies);
/// they stay zero in single-body runs and live outside the store's
/// legacy medium trio (serialized via the evaluation crowd tail only).
struct MediumStats {
  std::uint64_t transmissions = 0;      ///< physical transmissions started
  std::uint64_t deliveries_offered = 0; ///< (tx, rx) pairs above sensitivity
  std::uint64_t below_sensitivity = 0;  ///< (tx, rx) pairs lost to path loss
  std::uint64_t cross_offered = 0;      ///< cross-body pairs above sensitivity
  std::uint64_t cross_below_sensitivity = 0;  ///< cross-body pairs lost
};

/// See file comment.  One Medium per simulation run.
class Medium {
 public:
  /// `trace`, when non-null, receives a `tx` TraceEvent per physical
  /// transmission (obs::RunTrace; null = no tracing, zero cost).
  Medium(des::Kernel& kernel, channel::ChannelModel& channel,
         const obs::RunTrace* trace = nullptr);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Registers a radio; all registered radios hear each other's
  /// transmissions (subject to path loss).  Radios must carry distinct,
  /// non-negative channel ids (single body: the location; crowd:
  /// body * 10 + location).  Builds the radio's receiver row (every
  /// other radio, in attach order) and appends the radio to every
  /// existing row, so a radio attached mid-run hears later
  /// transmissions.
  void attach(Radio* radio);

  /// Starts a transmission from `tx`: distributes signal_start to every
  /// audible receiver, in attach order, and schedules exactly one event
  /// at now + `duration_s` that calls signal_end on those receivers, in
  /// the same order, then the sender's finish_transmit(), crediting the
  /// kernel one event per signal end (DESIGN.md §11.1).
  void begin_transmission(Radio& tx, const Packet& p, double duration_s);

  [[nodiscard]] const MediumStats& stats() const { return stats_; }

 private:
  /// The transmission-end event of begin_transmission.
  void end_transmission(Radio& tx, std::uint64_t tx_id, std::uint32_t list);

  /// One transmitter's receivers: every other attached radio, in attach
  /// order, with its channel id alongside for the batched channel call.
  struct Row {
    std::vector<int> ids;
    std::vector<Radio*> radios;
  };

  des::Kernel& kernel_;
  channel::ChannelModel& channel_;
  const obs::RunTrace* trace_;
  std::vector<Radio*> radios_;  ///< in attach order
  /// rows_[k] is radios_[k]'s receiver row, and rows_[row_of_[id]] the
  /// row of the radio at channel id `id`; -1 marks an unused id.
  std::vector<Row> rows_;
  std::vector<int> row_of_;
  std::uint64_t next_tx_id_ = 1;
  MediumStats stats_;
  /// Scratch for the sampled losses of one transmission; sized to the
  /// widest row, reused for every transmission.
  std::vector<double> batch_pl_;
  /// Pooled receiver lists, one per transmission on the air, recycled
  /// through free_lists_ when it ends: no allocation per transmission
  /// after warm-up.
  std::vector<std::vector<Radio*>> receivers_;
  std::vector<std::uint32_t> free_lists_;
};

}  // namespace hi::net
