// The competing commodity workload: a parallel kernel build (§IV-B).
//
// What the experiments need from it is its *interference signature*:
//   - CPU demand from unpinned jobs (the scheduler water-fills it);
//   - free-memory drawdown and buddy fragmentation from short-lived
//     compiler processes that allocate mixed-order blocks and free them
//     in two bursts (working set at job end, leaked holes mid-life);
//   - page-cache growth (sources read, objects written) that keeps every
//     zone hovering at its watermark and gives reclaim dirty blocks;
//   - DRAM bandwidth demand.
//
// Each job slot is an actor: spawn -> allocate -> compute (several
// chunks) -> free a random subset -> compute -> free the rest -> respawn.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "os/node.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::workloads {

struct KernelBuildConfig {
  std::uint32_t jobs = 8;            // parallel make -jN
  double duty_cycle = 0.6;           // CPU share while runnable (I/O waits)
  std::uint64_t mean_job_bytes = 120 * 1024 * 1024ull; // compiler working set
  std::uint64_t cache_bytes_per_job = 96 * 1024 * 1024ull; // page cache growth
  double cache_dirty_fraction = 0.4; // object output needing writeback
  double mean_job_seconds = 1.4;     // one translation unit
  double bw_demand_per_job = 0.5;    // bytes/cycle of DRAM traffic
};

struct KernelBuildStats {
  std::uint64_t jobs_completed = 0;
  std::uint64_t alloc_failures = 0;
  std::uint64_t bytes_churned = 0;
};

class KernelBuild {
 public:
  KernelBuild(os::Node& node, KernelBuildConfig config, Rng rng);
  ~KernelBuild();
  KernelBuild(const KernelBuild&) = delete;
  KernelBuild& operator=(const KernelBuild&) = delete;

  /// Begin the build; runs until stop() (or node teardown).
  void start();
  void stop();

  [[nodiscard]] const KernelBuildStats& stats() const noexcept { return stats_; }

  struct Block {
    ZoneId zone;
    Addr addr;
    unsigned order;
  };

 private:
  friend struct hpmmap::snapshot::Access;

  struct Job {
    std::vector<Block> blocks;
    os::Scheduler::ThreadId sched{};
    hw::BandwidthModel::Consumer bw{};
    ZoneId home = 0;
    unsigned phase = 0;
    sim::EventId pending{};
    bool live = false;
  };

  void spawn_job(std::size_t slot);
  void job_step(std::size_t slot);
  void allocate_working_set(Job& job, std::uint64_t bytes);
  void free_blocks(Job& job, double fraction);
  [[nodiscard]] unsigned sample_order();

  os::Node& node_;
  KernelBuildConfig config_;
  Rng rng_;
  std::vector<Job> jobs_;
  KernelBuildStats stats_;
  bool running_ = false;
};

} // namespace hpmmap::workloads
