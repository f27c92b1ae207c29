// Parallel discrete-event simulation (PDES) coordinator.
//
// A cluster run gives every node its own Engine; the coordinator runs
// the engines on a worker pool and synchronizes them conservatively.
// Two synchronization shapes share the machinery:
//
//   - run_lookahead(): the classic conservative window loop. Horizon =
//     min next event time across all engines and queued messages; every
//     engine advances to horizon + lookahead, queued cross-engine
//     messages are delivered at the barrier, repeat. Sound as long as a
//     message sent during a window carries a timestamp at least
//     `lookahead` past the window start — which the cluster network
//     model guarantees, because no cross-node interaction is cheaper
//     than the wire's minimum latency.
//
//   - run_phase(): rendezvous mode, used by the cluster harness. A BSP
//     job's per-iteration barrier is the *only* cross-node coupling, so
//     between barriers the effective lookahead is infinite: each engine
//     runs freely until its local actors stop it (or it drains), the
//     controller resolves the barrier single-threaded, and the next
//     phase begins. The soundness condition — every cross-engine event
//     lands at or after the destination's clock — is asserted on every
//     delivery.
//
// Determinism: each group's engine, together with its run context
// (flight recorder, metrics, injector, trace clock — installed by the
// enter/leave hooks), is touched by exactly one thread at a time; the
// controller's inter-phase work is single-threaded; and cross-engine
// messages are delivered in (when, src-order, post-order) sorted order.
// The result is byte-identical for any worker count, including 1.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "sim/engine.hpp"

namespace hpmmap::sim {

class ParallelCoordinator {
 public:
  /// Installed around every execution slice of a group: `enter` binds
  /// the group's run context to the current thread (recorder, metrics,
  /// injector, trace clock, category mask), `leave` unbinds it.
  struct GroupHooks {
    std::function<void()> enter;
    std::function<void()> leave;
  };

  /// `workers` == 0 selects max(1, hardware_concurrency). One worker
  /// runs everything inline on the calling thread — the deterministic
  /// reference any other worker count must match byte-for-byte.
  explicit ParallelCoordinator(unsigned workers = 1);
  ~ParallelCoordinator();
  ParallelCoordinator(const ParallelCoordinator&) = delete;
  ParallelCoordinator& operator=(const ParallelCoordinator&) = delete;

  /// Register an engine (one per node/group). Call before the first
  /// run_*; returns the group id.
  std::size_t add_group(Engine& engine, GroupHooks hooks = {});

  [[nodiscard]] std::size_t group_count() const noexcept { return groups_.size(); }
  [[nodiscard]] unsigned workers() const noexcept { return workers_; }
  [[nodiscard]] Engine& engine(std::size_t g) { return *groups_[g].engine; }

  /// Cross-engine message: run `fn` on group `dst`'s engine at absolute
  /// time `when`. Callable from inside a running group (the message is
  /// buffered in the sender's outbox — no locks; a group runs on one
  /// thread at a time) or from the controller between phases. Delivery
  /// happens at the next synchronization point, sorted by
  /// (when, sender, post order); the coordinator asserts `when` has not
  /// fallen behind the destination's clock — the lookahead soundness
  /// condition.
  template <typename F>
  void post(std::size_t dst, Cycles when, F&& fn) {
    post_message(dst, when, EventCallback(std::forward<F>(fn), nullptr));
  }

  /// Conservative window loop: repeatedly advance every engine to
  /// horizon + `lookahead` (horizon = min pending event/message time),
  /// delivering queued messages between windows, until every engine is
  /// drained or the horizon passes `until`. Engine clocks never advance
  /// past a window's end, so a message posted during a window with
  /// when >= send time + lookahead can never arrive in an engine's past.
  void run_lookahead(Cycles lookahead, Cycles until = Engine::kNoEvent);

  /// Rendezvous mode: deliver queued messages, then run every engine
  /// until it stops or drains. The caller's actors are responsible for
  /// stopping each engine at the rendezvous point (e.g. a BSP barrier).
  void run_phase();

  /// Deliver queued messages, then run every engine with
  /// run_until(until) semantics.
  void run_phase_until(Cycles until);

  /// Run `fn(group id)` once per group across the pool, with the
  /// group's enter/leave hooks around each call; blocks until all
  /// finish. Inline, in group order, at one worker. For per-group work
  /// that is not an engine slice (e.g. booting each node); `fn` must
  /// touch only its own group's state. No messages are delivered.
  void run_on_groups(const std::function<void(std::size_t)>& fn);

 private:
  struct Message {
    Cycles when = 0;
    std::size_t src = 0;     // sender group (controller = group_count())
    std::uint64_t order = 0; // post index within the sender
    std::size_t dst = 0;
    EventCallback fn;
  };

  struct Group {
    Engine* engine = nullptr;
    GroupHooks hooks;
    // Filled only while this group's slice runs (single thread), drained
    // single-threaded by the controller between slices.
    std::vector<Message> outbox;
    std::uint64_t posted = 0;
  };

  void post_message(std::size_t dst, Cycles when, EventCallback fn);
  void deliver_queued();
  /// Run `body(group)` for every group across the pool; blocks until
  /// all finish. Hooks bracket every slice.
  void for_each_group(const std::function<void(Group&)>& body);
  void worker_loop();

  std::vector<Group> groups_;
  std::vector<Message> queued_; // controller-side, between phases
  std::uint64_t controller_posted_ = 0;
  unsigned workers_ = 1;

  // Persistent pool (created lazily on the first parallel phase).
  std::vector<std::thread> pool_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(Group&)>* phase_body_ = nullptr;
  std::uint64_t phase_gen_ = 0;
  std::size_t phase_next_ = 0;
  std::size_t phase_done_ = 0;
  bool shutdown_ = false;
  // Set while a group slice runs on this thread: sender id for post().
  static thread_local std::size_t t_current_group_;
};

} // namespace hpmmap::sim
