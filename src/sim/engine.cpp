#include "sim/engine.hpp"

#include <utility>

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace hpmmap::sim {

Engine::Engine() {
  trace::set_clock(
      [](const void* ctx) { return static_cast<const Engine*>(ctx)->now(); }, this);
}

Engine::~Engine() { trace::clear_clock(this); }

EventId Engine::schedule_entry(Cycles when, EventCallback fn, bool daemon) {
  HPMMAP_ASSERT(when >= now_, "cannot schedule an event in the past");
  HPMMAP_ASSERT(fn != nullptr, "event callback must be callable");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.daemon = daemon;
  heap_.push_back(Entry{when, next_seq_++, slot, s.gen});
  sift_up(heap_.size() - 1);
  ++live_;
  if (daemon) {
    ++daemon_live_;
  }
  return EventId{slot + 1, s.gen};
}

void Engine::cancel(EventId id) {
  if (!id.valid()) {
    return;
  }
  const std::uint32_t slot = id.slot - 1;
  if (slot >= slots_.size() || slots_[slot].gen != id.gen) {
    return; // already fired, already cancelled, or never armed here
  }
  // Invalidate by bumping the generation; the heap entry becomes stale
  // and is discarded (and its slot recycled) when it reaches the top.
  // Drop the callback now so captured resources (and any arena block)
  // are released at cancel time, not when the stale entry drains.
  ++slots_[slot].gen;
  slots_[slot].fn = EventCallback{};
  if (slots_[slot].daemon) {
    slots_[slot].daemon = false;
    HPMMAP_ASSERT(daemon_live_ > 0, "cancel with no live daemons");
    --daemon_live_;
  }
  ++cancelled_;
  HPMMAP_ASSERT(live_ > 0, "cancel with no live events");
  --live_;
}

// Hole-percolation sifts: the displaced entry is held in a register-
// friendly 24-byte temporary and written exactly once, instead of three
// writes per level with std::swap.
void Engine::sift_up(std::size_t i) noexcept {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(e, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Engine::sift_down(std::size_t i) noexcept {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  while (true) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) {
      break;
    }
    std::size_t best = left;
    const std::size_t right = left + 1;
    if (right < n && before(heap_[right], heap_[left])) {
      best = right;
    }
    if (!before(heap_[best], e)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Engine::pop_min() noexcept {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    sift_down(0);
  }
}

bool Engine::fire_next(Cycles limit) {
  while (!heap_.empty()) {
    // A queue holding only daemon events is drained: background
    // observers (sampler ticks) must not keep the simulation alive or
    // advance time past the last piece of real work.
    if (live_ == daemon_live_) {
      return false;
    }
    const Entry e = heap_.front();
    if (e.when > limit) {
      return false;
    }
    pop_min();
    Slot& s = slots_[e.slot];
    if (s.gen != e.gen) {
      // Cancelled while queued: the generation moved on. The slot leaves
      // the heap exactly once per armed event, so recycling it here
      // cannot double-free.
      free_slots_.push_back(e.slot);
      continue;
    }
    ++s.gen;
    const bool was_daemon = s.daemon;
    if (s.daemon) {
      s.daemon = false;
      HPMMAP_ASSERT(daemon_live_ > 0, "firing with no live daemons");
      --daemon_live_;
    }
#ifndef NDEBUG
    // Ordering audit (debug builds): delivery across any boundary —
    // including events posted onto this engine by the parallel
    // coordinator — must keep non-daemon (when, seq) strictly
    // increasing, or the PDES byte-identity contract is already broken.
    if (!was_daemon) {
      HPMMAP_ASSERT(e.when > audit_last_when_ ||
                        (e.when == audit_last_when_ && e.seq > audit_last_seq_),
                    "event delivery violated monotonic (when, seq) order");
      audit_last_when_ = e.when;
      audit_last_seq_ = e.seq;
    }
#else
    (void)was_daemon;
#endif
    // Move the callback out before invoking: the callback may schedule,
    // growing slots_ and invalidating s — and may immediately reuse this
    // very slot, which is released below.
    EventCallback fn = std::move(s.fn);
    free_slots_.push_back(e.slot);
    HPMMAP_ASSERT(live_ > 0, "firing with no live events");
    --live_;
    // max(): a daemon entry can sit below now_ if a run_until() window
    // ended while only daemons remained; time never moves backward.
    now_ = e.when > now_ ? e.when : now_;
    ++fired_;
    fn();
    return true;
  }
  return false;
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_ && fire_next(~Cycles{0})) {
  }
}

void Engine::run_until(Cycles until) {
  stopped_ = false;
  while (!stopped_ && fire_next(until)) {
  }
  if (!stopped_ && now_ < until) {
    now_ = until;
  }
}

} // namespace hpmmap::sim
