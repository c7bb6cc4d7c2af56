// hi-opt: MAC (data-link) layer interface and shared queueing base.
//
// The component library offers two protocols (Sec. 2.1.2):
//   * CSMA (TunableMAC-style, non-persistent by default): sense before
//     transmit, back off for a random time when the medium is busy;
//   * TDMA: 1 ms slots assigned round-robin, exclusive medium access.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "des/kernel.hpp"
#include "net/packet.hpp"
#include "net/radio.hpp"
#include "obs/trace.hpp"

namespace hi::net {

/// Fixed-capacity FIFO ring of packets — the MAC buffer.  Capacity is
/// the buffer BMAC from the paper's node model, so the ring is allocated
/// once at construction and enqueue/dequeue never touch the heap
/// (DESIGN.md §11; this replaced a std::deque whose node churn showed up
/// in the simulator hot path).
class PacketQueue {
 public:
  explicit PacketQueue(std::size_t capacity) : ring_(capacity) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == ring_.size(); }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Oldest packet; queue must be non-empty.
  [[nodiscard]] const Packet& front() const { return ring_[head_]; }

  /// Caller must check full() first — the MAC drop policy lives there.
  void push_back(const Packet& p) {
    std::size_t tail = head_ + size_;
    if (tail >= ring_.size()) tail -= ring_.size();
    ring_[tail] = p;
    ++size_;
  }

  void pop_front() {
    if (++head_ == ring_.size()) head_ = 0;
    --size_;
  }

 private:
  std::vector<Packet> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// MAC-level counters.
struct MacStats {
  std::uint64_t enqueued = 0;
  std::uint64_t sent = 0;
  std::uint64_t dropped_buffer = 0;  ///< buffer BMAC overflowed
  std::uint64_t backoffs = 0;        ///< CSMA: medium sensed busy
};

/// Abstract MAC.  The routing layer enqueues packets; each concrete MAC
/// decides *when* the radio transmits them.  Received packets flow from
/// the radio straight to `on_receive` (set by the routing layer).
class Mac {
 public:
  /// `trace`, when non-null, receives a `drop_buffer` TraceEvent per
  /// buffer overflow; concrete MACs add their own kinds (CSMA:
  /// `backoff`).  Null = no tracing, zero cost.
  Mac(des::Kernel& kernel, Radio& radio, int buffer_packets,
      const obs::RunTrace* trace = nullptr);
  virtual ~Mac() = default;

  Mac(const Mac&) = delete;
  Mac& operator=(const Mac&) = delete;

  /// Called once at simulation start.
  virtual void start() {}

  /// Accepts a packet from the routing layer; drops it (counted) when the
  /// buffer is full.
  void enqueue(const Packet& p);

  /// Callback for packets decoded by the radio (set by routing).
  std::function<void(const Packet&)> on_receive;

  [[nodiscard]] const MacStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

 protected:
  /// Hook: new packet available; concrete MAC schedules a transmission.
  virtual void on_queue_not_empty() = 0;

  des::Kernel& kernel_;
  Radio& radio_;
  int buffer_packets_;
  const obs::RunTrace* trace_;
  PacketQueue queue_;
  MacStats stats_;
};

}  // namespace hi::net
