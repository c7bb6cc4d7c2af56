// hi-opt: discrete-event simulation kernel.
//
// A minimal, deterministic event scheduler in the style of OMNeT++ /
// Castalia's core: events are (time, handler) pairs executed in
// non-decreasing time order, with FIFO ordering among simultaneous
// events (by scheduling sequence number) so runs are exactly
// reproducible.
//
// Hot-path design (DESIGN.md §11).  The kernel is the innermost loop of
// every DSE iteration, so its storage is built to avoid per-event heap
// traffic entirely:
//
//   * Event arena — events live in fixed-size slabs (chunks of Event
//     slots with stable addresses); a free list recycles slots, so
//     steady-state schedule/dispatch allocates nothing.  Handlers are
//     stored inline in the slot via a small-buffer vtable (invoke /
//     destroy function pointers); callables larger than
//     kInlineHandlerBytes fall back to one heap allocation each,
//     counted in handler_heap_allocs() (obs: des.alloc_handler_heap)
//     so the fallback can never creep in silently.
//   * Indexed d-ary min-heap — the pending queue is a 4-ary heap of
//     slot indices ordered by (time, seq); each slot records its heap
//     position, so cancel() removes the event in place in O(log n).
//     There is no tombstone side-table and no lazy-cancellation
//     residue: every entry in the heap is live.
//   * One event per transmission end — a transmission's signal ends at
//     every receiver plus the sender's tx-done run in one handler
//     (net::Medium), which credits the folded signal ends through
//     credit_events(): events_processed() counts logical events,
//     dispatches() handlers run.  The heap has no same-time special case.
//   * Epoch-tagged EventIds — a slot's epoch is bumped every time the
//     slot is released, and an EventId carries the epoch it was issued
//     under, so a stale id (event already ran, already cancelled, or
//     slot since recycled) can never cancel an unrelated event.
//
// Determinism contract: execution order is the total order (time, seq)
// over live events for any schedule/cancel sequence, so simulation
// results are reproducible bit for bit (tests/test_sim_golden.cpp pins
// recorded fingerprints).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace hi::des {

/// Simulation time in seconds.
using Time = double;

/// Handle for a scheduled event, usable with Kernel::cancel().  Carries
/// the arena slot and the epoch it was issued under; default-constructed
/// ids are invalid and cancel() on them is a no-op.
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t epoch = 0;  // 0 = never issued
  [[nodiscard]] bool valid() const { return epoch != 0; }
};

/// The event scheduler.  Not thread-safe; one kernel per simulation run.
class Kernel {
 public:
  /// Handlers up to this size (and max_align_t alignment) are stored
  /// inline in the event slot; larger ones cost one heap allocation.
  /// 48 bytes comfortably fits every capture in the simulator's stack
  /// (the largest, a std::function self-rescheduling closure, is 32).
  static constexpr std::size_t kInlineHandlerBytes = 48;

  Kernel() = default;
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Current simulation time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `h` at absolute time `t >= now()`.  Returns a cancellable
  /// id.  `h` is any void() callable; it may schedule further events
  /// (including at the current time) and may cancel any pending event —
  /// cancelling its *own* id is a no-op, matching the historical
  /// erase-before-invoke semantics.
  template <typename F>
  EventId schedule_at(Time t, F&& h) {
    using Fn = std::decay_t<F>;
    HI_ASSERT_MSG(t >= now_, "schedule_at(" << t << ") before now=" << now_);
    Event& e = acquire_slot();
    e.t = t;
    e.seq = next_seq_++;
    if constexpr (sizeof(Fn) <= kInlineHandlerBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(e.storage)) Fn(std::forward<F>(h));
      e.invoke = [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); };
      e.destroy = [](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); };
    } else {
      ::new (static_cast<void*>(e.storage)) Fn*(new Fn(std::forward<F>(h)));
      ++handler_heap_allocs_;
      e.invoke = [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); };
      e.destroy = [](void* s) {
        delete *std::launder(reinterpret_cast<Fn**>(s));
      };
    }
    heap_push(e.self);
    return EventId{e.self, e.epoch};
  }

  /// Schedules `h` after `delay >= 0` seconds.
  template <typename F>
  EventId schedule_in(Time delay, F&& h) {
    HI_ASSERT_MSG(delay >= 0.0, "negative delay " << delay);
    return schedule_at(now_ + delay, std::forward<F>(h));
  }

  /// Cancels a pending event in place (O(log n)); no-op if it already
  /// ran, was already cancelled, or the id is invalid/stale.
  void cancel(EventId id);

  /// Pre-sizes the arena and heap for at least `min_pending` concurrently
  /// pending events, so a run whose high water stays under the
  /// reservation never grows a container mid-run.  This is how a
  /// multi-network (crowd) run shares one kernel across M bodies without
  /// per-body allocation: one reservation up front, zero slab growth on
  /// the hot path.  Purely an allocation hint — slot hand-out order,
  /// event ordering, and every counter except arena_chunks() are
  /// unaffected, so reserved and unreserved runs are bit-identical.
  void reserve(std::size_t min_pending);

  /// Runs events with time <= horizon, then sets now() = horizon.
  /// Handlers may schedule further events, including at the current time.
  void run_until(Time horizon);

  /// Runs until the event queue is empty.
  void run_to_completion();

  /// Credits `n` events that the running handler executes itself: one
  /// handler doing the work of n + 1 back-to-back same-time events (a
  /// transmission end, see net::Medium) counts as n + 1 events.
  void credit_events(std::uint64_t n) { processed_ += n; }

  /// Number of events executed so far (cancelled events excluded),
  /// including those credited by credit_events().
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Number of handlers actually dispatched (obs: des.dispatches); at
  /// most events_processed().
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }

  /// Number of events currently pending (cancelled ones are removed
  /// immediately and never counted).
  [[nodiscard]] std::size_t events_pending() const { return pending_; }

  /// Number of events cancelled before they ran.
  [[nodiscard]] std::uint64_t events_cancelled() const { return cancelled_; }

  /// Largest number of simultaneously pending (live) events ever reached.
  [[nodiscard]] std::size_t heap_highwater() const { return heap_hwm_; }

  // --- Allocation / heap-work introspection (obs: des.alloc_*,
  // --- des.heap_sift; see DESIGN.md §11) -------------------------------
  /// Event-arena slabs allocated so far (kChunkEvents slots each).
  [[nodiscard]] std::uint64_t arena_chunks() const { return arena_chunks_; }
  /// Handlers too large for the inline buffer (each cost one heap
  /// allocation).  Zero for the whole hi::net stack.
  [[nodiscard]] std::uint64_t handler_heap_allocs() const {
    return handler_heap_allocs_;
  }
  /// Total sift-up + sift-down steps performed by the indexed heap —
  /// the comparison work a run's schedule pattern induces.
  [[nodiscard]] std::uint64_t heap_sift_steps() const { return sift_steps_; }

 private:
  static constexpr std::size_t kChunkEvents = 256;
  static constexpr std::int32_t kFree = -1;     ///< slot on the free list
  static constexpr std::int32_t kRunning = -2;  ///< popped, handler active

  struct Event {
    Time t = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t self = 0;   ///< arena index of this slot
    std::uint32_t epoch = 1;  ///< bumped on every release
    std::int32_t heap_pos = kFree;
    void (*invoke)(void*) = nullptr;
    void (*destroy)(void*) = nullptr;
    alignas(std::max_align_t) unsigned char storage[kInlineHandlerBytes];
  };

  [[nodiscard]] Event& event(std::uint32_t slot) {
    return chunks_[slot / kChunkEvents][slot % kChunkEvents];
  }

  /// Earlier-time-wins, FIFO (lower seq) among equal times: the same
  /// total order the historical (time, seq) priority queue used.
  [[nodiscard]] static bool before(const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  Event& acquire_slot();
  void grow_arena();  ///< adds one slab and puts its slots on the free list
  void release_slot(Event& e);  ///< destroy handler, bump epoch, recycle
  void heap_push(std::uint32_t slot);  ///< enqueue a newly scheduled slot
  void heap_remove(std::int32_t pos);  ///< detach heap_[pos] from the heap
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void dispatch(Event& e);  ///< pop, run and release the heap root

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t pending_ = 0;
  std::size_t heap_hwm_ = 0;
  std::uint64_t arena_chunks_ = 0;
  std::uint64_t handler_heap_allocs_ = 0;
  std::uint64_t sift_steps_ = 0;
  std::vector<std::uint32_t> heap_;  ///< 4-ary min-heap of pending slots
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::vector<std::uint32_t> free_;
};

}  // namespace hi::des
