// MPI-style parallel application driver.
//
// Each rank is an actor on the shared event engine: it builds its
// address space through the node's syscall layer (so every allocation
// policy difference between Linux and HPMMAP is exercised for real),
// first-touches its data in slices (so khugepaged, kswapd and the
// kernel-build churn interleave with the fault storm), then runs a
// BSP iteration loop: churn temp buffers -> compute -> barrier.
//
// The barrier is where OS noise amplifies: iteration time is the *max*
// across ranks, so one rank stalled behind a merge or a reclaim delays
// everyone (§II-B, Figure 8).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "os/node.hpp"
#include "workloads/profiles.hpp"

namespace hpmmap::workloads {

/// Cycles a full-rank barrier + communication step costs, given the app
/// and total rank count. Provided by the single-node or cluster comm
/// models.
using CommModel = std::function<Cycles(const AppProfile&, std::uint64_t ranks)>;

/// Default intra-node (shared memory) communication cost.
[[nodiscard]] CommModel shared_memory_comm(double clock_hz);

struct RankPlacement {
  os::Node* node = nullptr;
  std::int32_t core = -1;
  ZoneId home_zone = 0;
  mm::AddressSpace::ZonePolicy zone_policy = mm::AddressSpace::ZonePolicy::kInterleave;
};

struct MpiJobConfig {
  AppProfile app;
  os::MmPolicy policy = os::MmPolicy::kLinuxThp;
  std::vector<RankPlacement> ranks;
  CommModel comm; // defaults to shared_memory_comm of rank 0's node
  // Distributed-barrier mode (cluster PDES): when set, a full house of
  // *local* ranks calls this hook with the arrival time instead of
  // releasing the barrier. The cluster controller resolves the global
  // barrier across all per-node jobs and re-enters via
  // external_release() / external_finish(); `comm` is unused.
  std::function<void(Cycles)> barrier_hook;
};

class MpiJob {
 public:
  MpiJob(sim::Engine& engine, MpiJobConfig config);

  /// Launch all ranks. `on_complete` fires once after teardown.
  void start(std::function<void()> on_complete = {});

  /// Distributed-barrier mode only (see MpiJobConfig::barrier_hook).
  /// Release every waiting local rank at absolute time `release_time`
  /// (= global barrier arrival + the controller's single comm draw).
  /// Returns true when every local rank has finished its iterations —
  /// the controller then calls external_finish() once all jobs agree.
  /// Must be called with this job's run context (trace clock fixed at
  /// the global barrier time) installed, between engine phases.
  bool external_release(Cycles release_time);

  /// Distributed-barrier mode only: schedule the finish/teardown event
  /// at absolute time `finish_time` (mirrors the finish_job event the
  /// in-engine barrier release schedules).
  void external_finish(Cycles finish_time);

  [[nodiscard]] bool done() const noexcept { return completed_; }
  [[nodiscard]] Cycles runtime_cycles() const noexcept { return runtime_; }
  [[nodiscard]] double runtime_seconds() const;

  /// Sum of all ranks' fault statistics.
  [[nodiscard]] mm::FaultStats aggregate_faults() const;

  /// Rank 0's mapping mix, captured at the moment the job finished
  /// (teardown unmaps everything, so live queries see nothing).
  [[nodiscard]] hw::MappingMix final_mapping_mix() const noexcept { return final_mix_; }
  [[nodiscard]] const os::Process& rank_process(std::size_t i) const;
  [[nodiscard]] std::size_t rank_count() const noexcept { return ranks_.size(); }

 private:
  struct Rank {
    os::Process* proc = nullptr;
    RankPlacement place;
    hw::BandwidthModel::Consumer bw{};
    // setup touch queue
    std::vector<Range> touch_queue;
    std::size_t tq_index = 0;
    Addr tq_pos = 0;
    // main data regions, re-referenced every iteration (swap-in probes)
    Range heap_range{};
    Range data_range{};
    // iteration state
    std::uint64_t iteration = 0;
    Addr temp_addr = 0;      // this iteration's churned buffer
    std::uint64_t substep = 0;
    std::uint64_t substeps = 1;
    Cycles finish_time = 0;
    bool finished = false;
  };

  void start_rank(std::size_t i);
  void setup_step(std::size_t i);
  void iterate_step(std::size_t i);
  void iterate_substep(std::size_t i);
  void arrive_barrier(std::size_t i);
  void release_barrier();
  void finish_job();
  [[nodiscard]] Cycles dilated(const Rank& r, Cycles kernel_cycles) const;

  sim::Engine& engine_;
  MpiJobConfig config_;
  std::vector<Rank> ranks_;
  std::function<void()> on_complete_;
  // barrier state
  std::uint64_t arrived_ = 0;
  std::vector<std::size_t> waiting_;
  Cycles job_start_ = 0;
  Cycles runtime_ = 0;
  hw::MappingMix final_mix_{};
  bool started_ = false;
  bool completed_ = false;
};

} // namespace hpmmap::workloads
