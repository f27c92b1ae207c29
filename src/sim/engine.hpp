// Discrete-event simulation engine.
//
// Everything in the simulated node — application compute bursts, page
// faults, khugepaged scans, kernel-build process churn — is an event on a
// single virtual clock measured in CPU cycles. Determinism is guaranteed
// by (time, sequence) ordering: two events at the same cycle fire in
// scheduling order, never in container-iteration order.
//
// The hot path is allocation-free: callbacks live inline in the heap
// entries (EventCallback's small-buffer optimization; rare large
// captures spill into a recycling bump arena), and cancellation is a
// generation check against a reusable slot table rather than a tombstone
// set — cancel() is O(1), fired and cancelled events release their slots
// immediately, and pending_events() is exact on arbitrarily long runs.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "sim/arena.hpp"
#include "sim/event_callback.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::sim {

/// Handle for cancelling a scheduled event: a slot index plus the
/// generation the slot had when the event was armed. A fired or
/// cancelled event bumps the generation, so stale handles (including
/// handles for a slot that has since been reused) can never hit a
/// successor event.
struct EventId {
  std::uint32_t slot = 0; // 1-based; 0 = invalid
  std::uint32_t gen = 0;
  [[nodiscard]] bool valid() const noexcept { return slot != 0; }
};

class Engine {
 public:
  using Callback = EventCallback;

  /// Registers this engine as the tracing clock, so tracepoints in
  /// components without an engine reference can stamp virtual time.
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Cycles now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay` cycles from now.
  template <typename F>
  EventId schedule(Cycles delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at absolute time `when` (>= now()).
  template <typename F>
  EventId schedule_at(Cycles when, F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, EventCallback>) {
      return schedule_entry(when, std::move(fn));
    } else {
      return schedule_entry(when, EventCallback(std::forward<F>(fn), &arena_));
    }
  }

  /// Schedule `fn` as a *daemon* event `delay` cycles from now. Daemon
  /// events fire like any other while real work is pending, but they do
  /// not keep the engine alive: run() treats a queue holding only daemon
  /// events as drained. This is what periodic background activity (the
  /// telemetry sampler) needs — a self-rescheduling observer must never
  /// turn a terminating simulation into an infinite one.
  template <typename F>
  EventId schedule_daemon(Cycles delay, F&& fn) {
    return schedule_daemon_at(now_ + delay, std::forward<F>(fn));
  }

  /// Daemon variant of schedule_at (see schedule_daemon).
  template <typename F>
  EventId schedule_daemon_at(Cycles when, F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, EventCallback>) {
      return schedule_entry(when, std::move(fn), /*daemon=*/true);
    } else {
      return schedule_entry(when, EventCallback(std::forward<F>(fn), &arena_),
                            /*daemon=*/true);
    }
  }

  /// Cancel a pending event. Cancelling an already-fired or invalid id is
  /// a harmless no-op (mirrors timer APIs the actors expect).
  void cancel(EventId id);

  /// Run until the queue drains or `stop()` is called.
  void run();

  /// Run events with time <= `until`; afterwards now() == max(now, until)
  /// unless stopped earlier.
  void run_until(Cycles until);

  /// Stop after the currently executing event returns.
  void stop() noexcept { stopped_ = true; }
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  /// A time no event reaches: "nothing pending" for callers that keep
  /// per-engine event times (the cluster coordinator's arrival slots).
  static constexpr Cycles kNoEvent = ~Cycles{0};

  /// True when run() would return immediately: nothing pending but
  /// daemon events (which never keep a run alive).
  [[nodiscard]] bool drained() const noexcept { return live_ == daemon_live_; }

  /// Exact count of events armed but neither fired nor cancelled.
  [[nodiscard]] std::size_t pending_events() const noexcept { return live_; }
  /// How many of those are daemon events (they never keep run() alive).
  [[nodiscard]] std::size_t pending_daemons() const noexcept { return daemon_live_; }
  [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }
  [[nodiscard]] std::uint64_t events_cancelled() const noexcept { return cancelled_; }

  /// Arena backing out-of-line callbacks and other short-lived event
  /// payloads; reset at quiescence, never mid-run.
  [[nodiscard]] BumpArena& arena() noexcept { return arena_; }

 private:
  // Snapshot/restore reaches the queue internals (src/snapshot/): all
  // capture/restore logic is centralized there rather than widening the
  // public API with serialization accessors.
  friend struct hpmmap::snapshot::Access;

  /// Heap node: ordering key + slot handle only, 24 trivially copyable
  /// bytes. The callable itself is parked in slots_ and never moves
  /// during sifts — the single biggest cost of keeping callbacks inside
  /// heap entries is the relocation storm on every sift.
  struct Entry {
    Cycles when;
    std::uint64_t seq;
    std::uint32_t slot; // 0-based index into slots_
    std::uint32_t gen;
  };
  /// One armed (or recyclable) event: the callback and the slot's
  /// current generation. A heap entry is live iff its stored generation
  /// matches. Slots are recycled through free_slots_ once their entry
  /// leaves the heap, so the table stays bounded by peak concurrency.
  struct Slot {
    EventCallback fn;
    std::uint32_t gen = 1;
    bool daemon = false;
  };

  EventId schedule_entry(Cycles when, EventCallback fn, bool daemon = false);
  /// True iff a comes strictly before b in firing order.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  void pop_min() noexcept;
  bool fire_next(Cycles limit);

  // Declared before the callback stores: outline callbacks free their
  // blocks back into the arena on destruction, so the arena must be
  // destroyed after them.
  BumpArena arena_;
  // Binary min-heap of PODs ordered by (when, seq).
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Cycles now_ = 0;
  std::uint64_t next_seq_ = 1;
#ifndef NDEBUG
  // Debug ordering audit: non-daemon events must fire in strictly
  // increasing (when, seq) order — the invariant the PDES byte-identity
  // gate rests on. Daemon events are exempt: one parked below now_
  // across a run_until() window legitimately replays an old timestamp.
  Cycles audit_last_when_ = 0;
  std::uint64_t audit_last_seq_ = 0;
#endif
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_ = 0;
  std::size_t daemon_live_ = 0;
  bool stopped_ = false;
};

} // namespace hpmmap::sim
