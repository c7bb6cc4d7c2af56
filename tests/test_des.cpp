// Unit tests for the discrete-event kernel (des/kernel.hpp), including
// the indexed-heap cancellation edge cases and the steady-state
// zero-allocation contract of the event arena (DESIGN.md §11).
#include "des/kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/assert.hpp"

// Global allocation counter so tests can assert the kernel hot path
// stays off the heap.  This test binary is single-threaded; the
// counter is a plain integer on purpose (atomics would still be fine
// but are not needed).
namespace {
std::uint64_t g_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hi::des {
namespace {

TEST(Kernel, ExecutesInTimeOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(3.0, [&] { order.push_back(3); });
  k.schedule_at(1.0, [&] { order.push_back(1); });
  k.schedule_at(2.0, [&] { order.push_back(2); });
  k.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(k.now(), 10.0);
}

TEST(Kernel, SimultaneousEventsAreFifo) {
  Kernel k;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    k.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  k.run_until(5.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Kernel, NowAdvancesDuringExecution) {
  Kernel k;
  double seen = -1.0;
  k.schedule_at(4.5, [&] { seen = k.now(); });
  k.run_until(100.0);
  EXPECT_DOUBLE_EQ(seen, 4.5);
}

TEST(Kernel, ScheduleInUsesRelativeTime) {
  Kernel k;
  double seen = -1.0;
  k.schedule_at(2.0, [&] {
    k.schedule_in(3.0, [&] { seen = k.now(); });
  });
  k.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Kernel, CancelPreventsExecution) {
  Kernel k;
  bool ran = false;
  const EventId id = k.schedule_at(1.0, [&] { ran = true; });
  k.cancel(id);
  k.run_until(5.0);
  EXPECT_FALSE(ran);
  EXPECT_EQ(k.events_processed(), 0u);
}

TEST(Kernel, CancelAfterExecutionIsNoop) {
  Kernel k;
  int runs = 0;
  const EventId id = k.schedule_at(1.0, [&] { ++runs; });
  k.run_until(2.0);
  k.cancel(id);  // already ran
  k.run_until(3.0);
  EXPECT_EQ(runs, 1);
}

TEST(Kernel, InvalidEventIdCancelIsNoop) {
  Kernel k;
  k.cancel(EventId{});  // must not crash
  EXPECT_FALSE(EventId{}.valid());
}

TEST(Kernel, RunUntilStopsAtHorizon) {
  Kernel k;
  bool late_ran = false;
  k.schedule_at(5.0, [&] { late_ran = true; });
  k.run_until(4.0);
  EXPECT_FALSE(late_ran);
  EXPECT_DOUBLE_EQ(k.now(), 4.0);
  k.run_until(6.0);
  EXPECT_TRUE(late_ran);
}

TEST(Kernel, EventAtHorizonRuns) {
  Kernel k;
  bool ran = false;
  k.schedule_at(4.0, [&] { ran = true; });
  k.run_until(4.0);
  EXPECT_TRUE(ran);
}

TEST(Kernel, HandlerMayScheduleAtCurrentTime) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(1.0, [&] {
    order.push_back(0);
    k.schedule_at(1.0, [&] { order.push_back(1); });
  });
  k.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Kernel, SelfReschedulingChain) {
  Kernel k;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 100) k.schedule_in(0.1, tick);
  };
  k.schedule_in(0.1, tick);
  k.run_until(100.0);
  EXPECT_EQ(count, 100);
  EXPECT_EQ(k.events_processed(), 100u);
}

TEST(Kernel, RunToCompletionDrainsQueue) {
  Kernel k;
  int count = 0;
  k.schedule_at(1.0, [&] { ++count; });
  k.schedule_at(1e9, [&] { ++count; });
  k.run_to_completion();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(k.events_pending(), 0u);
}

TEST(Kernel, PendingCountExcludesCancelled) {
  Kernel k;
  const EventId a = k.schedule_at(1.0, [] {});
  k.schedule_at(2.0, [] {});
  EXPECT_EQ(k.events_pending(), 2u);
  k.cancel(a);
  EXPECT_EQ(k.events_pending(), 1u);
}

TEST(Kernel, SchedulingInPastThrows) {
  Kernel k;
  k.schedule_at(5.0, [] {});
  k.run_until(5.0);
  EXPECT_THROW(k.schedule_at(4.0, [] {}), InternalError);
  EXPECT_THROW(k.schedule_in(-1.0, [] {}), InternalError);
}

TEST(Kernel, ManyEventsStressOrdering) {
  Kernel k;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 10'000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000) + 0.5;
    k.schedule_at(t, [&, t] {
      monotone = monotone && t >= last;
      last = t;
    });
  }
  k.run_until(2'000.0);
  EXPECT_TRUE(monotone);
  EXPECT_EQ(k.events_processed(), 10'000u);
}

// --- Indexed-heap cancellation edge cases --------------------------------

TEST(Kernel, CancelOnlyPendingEvent) {
  Kernel k;
  bool ran = false;
  const EventId id = k.schedule_at(1.0, [&] { ran = true; });
  k.cancel(id);
  EXPECT_EQ(k.events_pending(), 0u);
  k.run_until(5.0);
  EXPECT_FALSE(ran);
  EXPECT_EQ(k.events_cancelled(), 1u);
}

TEST(Kernel, CancelLastHeapEntry) {
  // The latest-scheduled event sits at the heap tail; removing it must
  // not disturb the rest of the order.
  Kernel k;
  std::vector<int> order;
  k.schedule_at(1.0, [&] { order.push_back(1); });
  k.schedule_at(2.0, [&] { order.push_back(2); });
  const EventId last = k.schedule_at(3.0, [&] { order.push_back(3); });
  k.cancel(last);
  k.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Kernel, CancelThenRescheduleAtEqualTimestamp) {
  // Cancelling A and rescheduling at the same time must put the new
  // event after every event scheduled before it (fresh sequence
  // number), not in A's old slot position.
  Kernel k;
  std::vector<int> order;
  const EventId a = k.schedule_at(1.0, [&] { order.push_back(0); });
  k.schedule_at(1.0, [&] { order.push_back(1); });
  k.cancel(a);
  k.schedule_at(1.0, [&] { order.push_back(2); });
  k.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Kernel, FifoSurvivesInteriorCancellations) {
  // Interleave three timestamps, then cancel interior events at each:
  // the swap-removals exercise both sift directions, and the FIFO order
  // among the equal-time survivors must be untouched.
  Kernel k;
  std::vector<std::pair<double, int>> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 30; ++i) {
    const double t = 1.0 + static_cast<double>(i % 3);
    ids.push_back(k.schedule_at(t, [&order, t, i] {
      order.emplace_back(t, i);
    }));
  }
  for (int i = 4; i < 30; i += 5) {
    k.cancel(ids[static_cast<std::size_t>(i)]);
  }
  k.run_until(10.0);
  ASSERT_EQ(order.size(), 24u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1].first, order[i].first);
    if (order[i - 1].first == order[i].first) {
      EXPECT_LT(order[i - 1].second, order[i].second);  // FIFO within time
    }
  }
}

TEST(Kernel, CounterEquivalenceUnderMixedOps) {
  // events_processed/pending/cancelled must follow the historical
  // semantics: double-cancel counts once, cancelled events never run,
  // pending excludes cancelled.
  Kernel k;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(
        k.schedule_at(1.0 + static_cast<double>(i), [] {}));
  }
  k.cancel(ids[0]);
  k.cancel(ids[0]);  // stale: must not double-count
  k.cancel(ids[5]);
  k.cancel(ids[9]);
  EXPECT_EQ(k.events_cancelled(), 3u);
  EXPECT_EQ(k.events_pending(), 7u);
  k.run_to_completion();
  EXPECT_EQ(k.events_processed(), 7u);
  EXPECT_EQ(k.events_cancelled(), 3u);
  EXPECT_EQ(k.events_pending(), 0u);
  EXPECT_GE(k.heap_highwater(), 10u);
}

TEST(Kernel, StaleIdAfterSlotReuseIsNoop) {
  // After an event runs, its arena slot is recycled under a new epoch;
  // the old id must not cancel the slot's new occupant.
  Kernel k;
  int first = 0;
  int second = 0;
  const EventId old_id = k.schedule_at(1.0, [&] { ++first; });
  k.run_until(2.0);
  const EventId new_id = k.schedule_at(3.0, [&] { ++second; });
  EXPECT_EQ(new_id.slot, old_id.slot);  // arena reuses the freed slot
  k.cancel(old_id);                     // stale epoch: no-op
  k.run_until(4.0);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(k.events_cancelled(), 0u);
}

TEST(Kernel, ThrowingHandlerReleasesItsSlot) {
  Kernel k;
  k.schedule_at(1.0, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(k.run_until(2.0), std::runtime_error);
  EXPECT_EQ(k.events_pending(), 0u);
  // The kernel stays usable: the slot was released despite the throw.
  bool ran = false;
  k.schedule_at(3.0, [&] { ran = true; });
  k.run_until(4.0);
  EXPECT_TRUE(ran);
}

// --- Allocation contract -------------------------------------------------

TEST(Kernel, SteadyStateDispatchMakesNoHeapAllocations) {
  Kernel k;
  // Warm-up: size the arena, heap array, and free list beyond anything
  // the steady-state phase needs.
  int warm = 0;
  for (int i = 0; i < 64; ++i) {
    k.schedule_in(0.001 * (i + 1), [&warm] { ++warm; });
  }
  k.run_until(1.0);
  ASSERT_EQ(warm, 64);

  // Steady state: a self-rescheduling chain plus schedule/cancel churn,
  // all with small (inline-stored) handlers.  Zero heap traffic allowed.
  const std::uint64_t before = g_heap_allocs;
  int ticks = 0;
  struct Chain {
    Kernel* k;
    int* ticks;
    void operator()() const {
      if (++*ticks < 1000) {
        const EventId doomed = k->schedule_in(0.5, [] {});
        k->cancel(doomed);
        k->schedule_in(0.001, *this);
      }
    }
  };
  k.schedule_in(0.001, Chain{&k, &ticks});
  k.run_until(100.0);
  EXPECT_EQ(ticks, 1000);
  EXPECT_EQ(g_heap_allocs, before);
  EXPECT_EQ(k.handler_heap_allocs(), 0u);
}

TEST(Kernel, OversizedHandlerFallbackIsCounted) {
  Kernel k;
  std::array<char, Kernel::kInlineHandlerBytes + 16> big{};
  big[0] = 1;
  int sum = 0;
  k.schedule_at(1.0, [big, &sum] { sum += big[0]; });
  EXPECT_EQ(k.handler_heap_allocs(), 1u);
  k.run_until(2.0);
  EXPECT_EQ(sum, 1);
}

TEST(Kernel, IntrospectionCountersAdvance) {
  Kernel k;
  EXPECT_EQ(k.arena_chunks(), 0u);
  for (int i = 0; i < 300; ++i) {  // spills past one 256-slot chunk
    k.schedule_at(1.0 + i, [] {});
  }
  EXPECT_EQ(k.arena_chunks(), 2u);
  k.run_to_completion();
  // Draining a 300-deep heap exercises sift-down on every pop.
  EXPECT_GT(k.heap_sift_steps(), 0u);
  EXPECT_EQ(k.dispatches(), 300u);
  EXPECT_EQ(k.events_processed(), 300u);
  // A handler that does the work of 4 more events credits them: they
  // count as events, not as dispatches.
  k.schedule_in(1.0, [&k] { k.credit_events(4); });
  k.run_to_completion();
  EXPECT_EQ(k.dispatches(), 301u);
  EXPECT_EQ(k.events_processed(), 305u);
}

}  // namespace
}  // namespace hi::des
