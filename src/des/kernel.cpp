#include "des/kernel.hpp"

namespace hi::des {
namespace {

/// Children of heap position p live at p*kArity+1 ..; parent at (p-1)/kArity.
constexpr std::size_t kArity = 4;

}  // namespace

Kernel::~Kernel() {
  // Destroy handlers of events still pending at teardown (run_until
  // leaves future events queued by design).
  for (const std::uint32_t slot : heap_) {
    Event& e = event(slot);
    e.destroy(e.storage);
  }
}

void Kernel::grow_arena() {
  auto chunk = std::make_unique<Event[]>(kChunkEvents);
  const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkEvents);
  for (std::size_t i = 0; i < kChunkEvents; ++i) {
    chunk[i].self = base + static_cast<std::uint32_t>(i);
  }
  chunks_.push_back(std::move(chunk));
  ++arena_chunks_;
  // Push in reverse so low indices are handed out first.
  free_.reserve(free_.size() + kChunkEvents);
  for (std::size_t i = kChunkEvents; i-- > 0;) {
    free_.push_back(base + static_cast<std::uint32_t>(i));
  }
}

Kernel::Event& Kernel::acquire_slot() {
  if (free_.empty()) {
    grow_arena();
  }
  Event& e = event(free_.back());
  free_.pop_back();
  return e;
}

void Kernel::reserve(std::size_t min_pending) {
  heap_.reserve(min_pending);
  const std::size_t want =
      (min_pending + kChunkEvents - 1) / kChunkEvents;
  while (chunks_.size() < want) {
    grow_arena();
  }
}

void Kernel::release_slot(Event& e) {
  e.destroy(e.storage);
  e.invoke = nullptr;
  e.destroy = nullptr;
  e.heap_pos = kFree;
  ++e.epoch;
  if (e.epoch == 0) ++e.epoch;  // epoch 0 is reserved for "never issued"
  free_.push_back(e.self);
}

void Kernel::heap_push(std::uint32_t slot) {
  ++pending_;
  if (pending_ > heap_hwm_) heap_hwm_ = pending_;
  event(slot).heap_pos = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(slot);
  sift_up(heap_.size() - 1);
}

void Kernel::heap_remove(std::int32_t pos) {
  const auto p = static_cast<std::size_t>(pos);
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (p == heap_.size()) return;  // removed the tail entry
  heap_[p] = last;
  event(last).heap_pos = pos;
  // The filler may need to move either way relative to its new neighbours.
  sift_up(p);
  sift_down(static_cast<std::size_t>(event(last).heap_pos));
}

void Kernel::sift_up(std::size_t pos) {
  const std::uint32_t slot = heap_[pos];
  const Event& e = event(slot);
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    const std::uint32_t pslot = heap_[parent];
    if (!before(e, event(pslot))) break;
    heap_[pos] = pslot;
    event(pslot).heap_pos = static_cast<std::int32_t>(pos);
    pos = parent;
    ++sift_steps_;
  }
  heap_[pos] = slot;
  event(slot).heap_pos = static_cast<std::int32_t>(pos);
}

void Kernel::sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  const std::uint32_t slot = heap_[pos];
  const Event& e = event(slot);
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(event(heap_[c]), event(heap_[best]))) best = c;
    }
    if (!before(event(heap_[best]), e)) break;
    heap_[pos] = heap_[best];
    event(heap_[pos]).heap_pos = static_cast<std::int32_t>(pos);
    pos = best;
    ++sift_steps_;
  }
  heap_[pos] = slot;
  event(slot).heap_pos = static_cast<std::int32_t>(pos);
}

void Kernel::cancel(EventId id) {
  if (!id.valid()) return;
  if (id.slot >= chunks_.size() * kChunkEvents) return;
  Event& e = event(id.slot);
  if (e.epoch != id.epoch) return;  // already ran / cancelled / recycled
  if (e.heap_pos == kRunning || e.heap_pos == kFree) {
    return;  // an event may not cancel itself
  }
  heap_remove(e.heap_pos);
  --pending_;
  release_slot(e);
  ++cancelled_;
}

void Kernel::dispatch(Event& e) {
  // `e` is the heap root.  Detach before invoking so the handler sees
  // its own id as no-longer-pending (self-cancel is a no-op), exactly
  // like the historical erase-before-invoke semantics.  Popping the root
  // needs only the sift-down half of heap_remove.
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_.front() = last;
    sift_down(0);
  }
  e.heap_pos = kRunning;
  --pending_;
  now_ = e.t;
  ++processed_;
  ++dispatches_;
  struct Release {  // release even if the handler throws
    Kernel* k;
    Event* e;
    ~Release() { k->release_slot(*e); }
  } release{this, &e};
  e.invoke(e.storage);
}

void Kernel::run_until(Time horizon) {
  HI_ASSERT_MSG(horizon >= now_, "horizon " << horizon << " < now " << now_);
  while (!heap_.empty()) {
    Event& e = event(heap_.front());
    if (e.t > horizon) break;
    dispatch(e);
  }
  now_ = horizon;
}

void Kernel::run_to_completion() {
  while (!heap_.empty()) {
    dispatch(event(heap_.front()));
  }
}

}  // namespace hi::des
