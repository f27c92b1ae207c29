// Multithreaded fault-storm driver for the SMP contention study
// (DESIGN.md §14).
//
// One worker actor per core runs rounds of the anonymous-memory churn
// every threaded allocator-heavy app performs: mmap a slab, first-touch
// it page by page (one fault per engine event, so every lock acquire
// lands at its true virtual time and the cores genuinely interleave),
// munmap it, repeat. In Linux mode every worker is a *thread*
// of one process — all cores fault one address space, so they meet on
// the real serialization points: mmap_sem, the PT locks, the zone
// locks, and each other's TLB shootdown IPIs. In HPMMAP mode each core
// runs its own module-managed process and touches no shared Linux lock
// (§III-A), which is the scalability claim the bench curves quantify.
//
// Throughput is virtual-time: pages faulted / seconds(last worker's
// finish). Per-page app work is a fixed cycle count, never a random
// draw, so a run is a pure function of (config, seed) and the
// three-manager comparison runs common random numbers.
//
// Each event faults exactly one page: with several faults per event,
// re-entries of mmap_sem inside one slice would be stamped before a
// writer's release and re-pay the same wait (smp.hpp's stamping
// discipline bounds the error but cannot remove it).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "common/units.hpp"
#include "os/node.hpp"

namespace hpmmap::workloads {

struct SmpStormConfig {
  std::uint32_t cores = 4;
  /// One shared Process faulted by all cores (threads); false = one
  /// process per core (the HPMMAP shape — per-process isolation).
  bool shared_process = true;
  os::MmPolicy policy = os::MmPolicy::kLinuxPlain;
  std::uint64_t rounds = 6;            // mmap→touch→munmap rounds per core
  std::uint64_t slab_bytes = 2 * MiB;  // per-round mapping per core
};

class SmpStorm {
 public:
  SmpStorm(sim::Engine& engine, os::Node& node, SmpStormConfig config);

  /// Launch every worker; `on_complete` fires once when the last one
  /// finishes its rounds (processes stay alive for stats collection).
  void start(std::function<void()> on_complete = {});

  [[nodiscard]] bool done() const noexcept { return finished_ == workers_.size(); }
  /// Pages demand-faulted across all workers.
  [[nodiscard]] std::uint64_t pages_touched() const noexcept { return pages_touched_; }
  /// start() to the last worker's finish, in cycles.
  [[nodiscard]] Cycles span_cycles() const noexcept { return last_finish_ - start_time_; }
  /// Sum of all workers' processes' fault statistics (deduplicated: the
  /// shared process counts once).
  [[nodiscard]] mm::FaultStats aggregate_faults() const;

 private:
  /// Fixed user-mode cycles per touched page (the app consuming it).
  static constexpr Cycles kAppWorkPerPage = 600;

  struct Worker {
    os::Process* proc = nullptr;
    std::int32_t core = 0;
    std::uint64_t round = 0;
    Addr slab = 0;
    Addr pos = 0;
  };

  void begin_round(std::size_t i);
  void touch_step(std::size_t i);
  void end_round(std::size_t i);
  void finish_worker(std::size_t i);

  sim::Engine& engine_;
  os::Node& node_;
  SmpStormConfig config_;
  std::vector<Worker> workers_;
  std::function<void()> on_complete_;
  std::uint64_t pages_touched_ = 0;
  std::size_t finished_ = 0;
  Cycles start_time_ = 0;
  Cycles last_finish_ = 0;
};

} // namespace hpmmap::workloads
