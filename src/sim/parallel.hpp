// Parallel discrete-event simulation (PDES) coordinator.
//
// A cluster run gives every node its own Engine; the coordinator runs
// the engines on a worker pool and synchronizes them at rendezvous
// points. A BSP job's per-iteration barrier is the *only* cross-node
// coupling, so between barriers the effective lookahead is infinite:
// run_phase() lets each engine run freely until its local actors stop
// it (or it drains), then the controller resolves the barrier
// single-threaded and the next phase begins. The controller releases
// each node by scheduling onto its engine directly, and Engine's own
// "never schedule in the past" assert is the soundness check.
//
// Determinism: each group's engine, together with its run context
// (flight recorder, metrics, injector, trace clock — installed by the
// enter/leave hooks), is touched by exactly one thread at a time, and
// the controller's inter-phase work is single-threaded. The result is
// byte-identical for any worker count, including 1.
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

  /// Rendezvous mode: run every engine until it stops or drains. The
  /// caller's actors are responsible for stopping each engine at the
  /// rendezvous point (e.g. a BSP barrier).
  void run_phase();

  /// Run every engine with run_until(until) semantics.
  void run_phase_until(Cycles until);

  /// Run `fn(group id)` once per group across the pool, with the
  /// group's enter/leave hooks around each call; blocks until all
  /// finish. Inline, in group order, at one worker. For per-group work
  /// that is not an engine slice (e.g. booting each node); `fn` must
  /// touch only its own group's state.
  void run_on_groups(const std::function<void(std::size_t)>& fn);

 private:
  struct Group {
    Engine* engine = nullptr;
    GroupHooks hooks;
  };

  using Body = std::function<void(std::size_t)>;

  /// Claim and run slices of phase `gen` until none are left; the
  /// controller and every pool worker share it.
  void drain(std::uint64_t gen);
  void worker_loop();

  std::vector<Group> groups_;
  unsigned workers_ = 1;

  // Persistent pool (created lazily on the first parallel phase).
  std::vector<std::thread> pool_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const Body* phase_body_ = nullptr;
  std::uint64_t phase_gen_ = 0;
  std::size_t phase_next_ = 0;
  std::size_t phase_done_ = 0;
  bool shutdown_ = false;
};

} // namespace hpmmap::sim
