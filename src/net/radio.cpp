#include "net/radio.hpp"

#include "common/assert.hpp"
#include "net/medium.hpp"

namespace hi::net {

Radio::Radio(des::Kernel& kernel, Medium& medium, int location,
             const RadioParams& params, const obs::RunTrace* trace,
             int net_id, int channel_id)
    : kernel_(kernel), medium_(medium), location_(location), net_id_(net_id),
      channel_id_(channel_id >= 0 ? channel_id : location), params_(params),
      trace_(trace) {
  HI_REQUIRE(params_.bit_rate_bps > 0.0, "bit rate must be positive");
  HI_REQUIRE(params_.tx_mw > 0.0 && params_.rx_mw > 0.0,
             "radio power draws must be positive");
}

double Radio::packet_airtime_s(int bytes) const {
  return 8.0 * bytes / params_.bit_rate_bps;
}

void Radio::transmit(const Packet& p) {
  HI_ASSERT_MSG(!transmitting_, "radio " << location_ << " already transmitting");
  // Half duplex: an in-progress decode is lost.
  if (decoding_) {
    rx_energy_mj_ += (kernel_.now() - decode_start_) * params_.rx_mw;
    const Signal* cur = find_signal(current_rx_id_);
    HI_ASSERT(cur != nullptr);
    if (!cur->foreign) {
      ++stats_.rx_aborted;  // foreign decodes are not a local loss
    }
    decoding_ = false;
    current_rx_id_ = 0;
  }
  transmitting_ = true;
  const double duration = packet_airtime_s(p.bytes);
  tx_energy_mj_ += duration * params_.tx_mw;
  ++stats_.tx_packets;
  Packet out = p;
  out.sender = location_;
  medium_.begin_transmission(*this, out, duration);
}

void Radio::finish_transmit() {
  HI_ASSERT(transmitting_);
  transmitting_ = false;
  if (on_tx_done) {
    on_tx_done();
  }
}

Radio::Signal* Radio::find_signal(std::uint64_t tx_id) {
  for (Signal& s : audible_) {
    if (s.tx_id == tx_id) return &s;
  }
  return nullptr;
}

void Radio::signal_start(std::uint64_t tx_id, double rx_dbm, const Packet& p,
                         bool foreign) {
  // The medium only offers signals above sensitivity.
  audible_.push_back(Signal{tx_id, rx_dbm, foreign});
  if (foreign) {
    ++crowd_.foreign_heard;
  }
  if (transmitting_) {
    if (!foreign) {
      ++stats_.rx_missed;  // half duplex: cannot hear while talking
    }
    return;
  }
  if (!decoding_) {
    // Start decoding this signal (the radio cannot tell a foreign
    // preamble apart until the packet is decoded); pre-existing
    // interference can already doom it.
    decoding_ = true;
    current_rx_id_ = tx_id;
    decode_packet_ = p;
    current_corrupted_ = false;
    decode_start_ = kernel_.now();
    for (const Signal& sig : audible_) {
      if (sig.tx_id != tx_id && sig.rx_dbm > rx_dbm - params_.capture_db) {
        current_corrupted_ = true;
        break;
      }
    }
    return;
  }
  // Already decoding another signal: the newcomer is interference for the
  // current decode and is itself missed.
  if (!foreign) {
    ++stats_.rx_missed;
  }
  const Signal* cur = find_signal(current_rx_id_);
  HI_ASSERT(cur != nullptr);
  if (rx_dbm > cur->rx_dbm - params_.capture_db) {
    current_corrupted_ = true;
  }
}

void Radio::signal_end(std::uint64_t tx_id) {
  Signal* it = find_signal(tx_id);
  if (it == nullptr) {
    return;  // signal started while we were attached elsewhere — ignore
  }
  const bool foreign = it->foreign;
  // Swap-remove: audible_ order is never observable (see header).
  *it = audible_.back();
  audible_.pop_back();
  if (decoding_ && current_rx_id_ == tx_id) {
    decoding_ = false;
    current_rx_id_ = 0;
    rx_energy_mj_ += (kernel_.now() - decode_start_) * params_.rx_mw;
    if (foreign) {
      // Decoded a packet from another body's network: the net-id check
      // drops it here.  The decode time was still paid (energy above)
      // and the radio was busy for local traffic the whole time.
      if (!current_corrupted_) {
        ++crowd_.foreign_decoded;
      }
      return;
    }
    if (current_corrupted_) {
      ++stats_.rx_corrupted;
      if (trace_ != nullptr) {
        trace_->record(obs::TraceEvent{kernel_.now(),
                                       obs::TraceKind::kRxCollision,
                                       location_, decode_packet_.origin,
                                       decode_packet_.seq});
      }
    } else {
      ++stats_.rx_ok;
      if (trace_ != nullptr) {
        trace_->record(obs::TraceEvent{
            kernel_.now(), obs::TraceKind::kRxOk, location_,
            decode_packet_.origin, decode_packet_.seq,
            static_cast<double>(decode_packet_.hops)});
      }
      if (on_receive) {
        // Copied out: the handler may start a same-time transmission
        // that this radio hears, which starts a new decode.
        const Packet packet = decode_packet_;
        on_receive(packet);
      }
    }
  }
}

}  // namespace hi::net
