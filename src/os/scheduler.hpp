// CPU time-sharing model.
//
// The evaluation co-locates HPC ranks (pinned, §IV) with kernel-build
// jobs (explicitly "not pinned to any memory or cores"). Rather than
// simulating CFS tick by tick, the model solves the steady-state fair
// share: unpinned load water-fills across cores, and a thread's wall
// time is its CPU demand times the load ("dilation") of the core it runs
// on. Profile B's core overcommit (8 app cores + two 8-way builds on 12
// cores) produces dilation > 1 for the app; profile A's does not — which
// is exactly the asymmetry Figure 7 shows.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::os {

class Scheduler {
 public:
  explicit Scheduler(std::uint32_t cores);

  /// Slot index + generation: thread slots are recycled after
  /// remove_thread (kernel-build churn spawns and retires thousands of
  /// jobs per run), and the generation check turns a stale handle into a
  /// hard assert instead of silently aliasing the slot's next tenant.
  struct ThreadId {
    std::uint32_t id = 0; // 1-based slot; 0 = invalid
    std::uint32_t gen = 0;
    [[nodiscard]] bool valid() const noexcept { return id != 0; }
  };

  /// Register a runnable thread. `core` < 0 means unpinned; `weight` is
  /// its CPU duty cycle in [0, 1] (build jobs stall on I/O, ~0.6).
  ThreadId add_thread(std::int32_t core, double weight);
  void remove_thread(ThreadId id);
  /// Change a thread's demand (e.g. a build job entering its link phase).
  void set_weight(ThreadId id, double weight);

  /// Load factor (>= 1) experienced by a thread pinned to `core`, or by
  /// an unpinned thread (pass -1): its wall time per CPU cycle.
  [[nodiscard]] double dilation(std::int32_t core) const;

  /// Node-wide oversubscription: total runnable weight / cores, floored
  /// at 1. Feeds the khugepaged preemption model.
  [[nodiscard]] double oversubscription() const;

  [[nodiscard]] std::uint32_t cores() const noexcept {
    return static_cast<std::uint32_t>(state_.pinned_weight.size());
  }
  [[nodiscard]] double total_weight() const;
  /// Size of the internal slot table — bounded by peak concurrent
  /// threads, not by lifetime churn (regression hook for the tests).
  [[nodiscard]] std::size_t thread_slots() const noexcept { return state_.threads.size(); }
  [[nodiscard]] std::size_t live_threads() const noexcept { return state_.live_count; }

  struct Thread {
    std::int32_t core;
    double weight;
    std::uint32_t gen;
    bool live;
  };
  /// The members a snapshot image holds as they are (snapshot/image.hpp);
  /// the solved loads below are recomputed after a restore.
  struct State {
    std::vector<Thread> threads;
    std::vector<std::uint32_t> free_slots;
    std::size_t live_count = 0;
    std::vector<double> pinned_weight; // per-core pinned demand
    double unpinned_weight = 0.0;
  };

 private:
  friend struct hpmmap::snapshot::Access;

  [[nodiscard]] Thread& checked(ThreadId id, const char* what);
  void recompute() const;

  State state_;
  mutable std::vector<double> core_load_;  // solved loads
  mutable double water_level_ = 0.0;
  mutable bool dirty_ = true;
};

} // namespace hpmmap::os
