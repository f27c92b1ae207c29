// A simulated compute node: hardware model + Linux memory management +
// (optionally) the HPMMAP module, with processes, a scheduler, kswapd
// and khugepaged running on the shared event engine.
//
// This is the public composition surface the workloads, examples and
// benchmarks drive. The syscall entry points mirror Figure 6: every
// address-space call first probes the HPMMAP PID hash (when the module
// is loaded) and is served either by the module or by the default Linux
// implementation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/module.hpp"
#include "hw/bandwidth.hpp"
#include "hw/machine.hpp"
#include "hw/phys_mem.hpp"
#include "hw/tlb.hpp"
#include "linux_mm/cost_model.hpp"
#include "linux_mm/fault.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/memory_system.hpp"
#include "linux_mm/smp.hpp"
#include "linux_mm/thp.hpp"
#include "os/anon_lru.hpp"
#include "os/process.hpp"
#include "os/scheduler.hpp"
#include "sim/engine.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::os {

struct NodeConfig {
  hw::MachineSpec machine = hw::dell_r415();
  mm::CostModel costs{};
  /// System-wide THP (§IV: on for the THP tests, off for HugeTLBfs).
  bool thp_enabled = true;
  /// HugeTLBfs boot reservation per zone (§IV: 6 GB per zone = 12 of 16 GB).
  std::uint64_t hugetlb_pool_per_zone = 0;
  /// Fraction of a HugeTLBfs process's data mmaps that libhugetlbfs
  /// fails to back with pool pages (alignment, morecore gaps, mappings
  /// it does not interpose) and that land as ordinary 4K anon in the
  /// non-pool memory — the §II-C limitation that bites at 8 cores.
  double hugetlbfs_small_spill = 0.18;
  /// Load the HPMMAP module with this configuration.
  std::optional<core::ModuleConfig> hpmmap{};
  /// Run an SmpDomain: concurrent faulting cores *execute* mmap_sem,
  /// PT-shard and zone-lock acquisitions on the virtual clock, with
  /// per-CPU page-frame caches and batched TLB shootdowns (DESIGN.md
  /// §14). Absent = the single-core fault path, cycle-identical to
  /// every pre-SMP run.
  std::optional<mm::SmpConfig> smp{};
  /// Age the memory state at boot: fill the page cache, pin some slab
  /// memory, and fragment the freelists — the steady state of a machine
  /// that has been up for a while, which is what every real measurement
  /// (including the paper's) runs on. Pristine zones make THP look far
  /// better than it ever is in practice.
  bool aged_boot = true;
  double boot_cache_fraction = 0.45; // of online memory, reclaimable
  double boot_slab_fraction = 0.06;  // of online memory, unmovable
  std::uint64_t seed = 42;
  std::string name = "node0";
};

class Node {
 public:
  Node(sim::Engine& engine, NodeConfig config);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // --- process lifecycle ---------------------------------------------------
  /// `core` < 0 = unpinned; `duty` = CPU duty cycle for the scheduler.
  Process& spawn(std::string proc_name, MmPolicy policy, std::int32_t core, double duty,
                 mm::AddressSpace::ZonePolicy zone_policy, ZoneId home_zone);
  void exit_process(Process& proc);

  // --- syscalls (Figure 6 dispatch) ------------------------------------------
  struct SysOut {
    Errno err = Errno::kOk;
    Addr addr = 0;
    Cycles cost = 0;
  };
  /// What kind of segment the caller is creating; decides hugetlb
  /// eligibility (stacks never, §II-C) and THP eligibility.
  enum class Segment : std::uint8_t { kHeapData, kStack, kMisc };

  /// `core` >= 0 pins the call to that CPU for SMP lock accounting
  /// (threaded apps share one Process across cores); -1 = proc.core().
  SysOut sys_mmap(Process& proc, std::uint64_t len, Prot prot, Segment seg,
                  std::int32_t core = -1);
  SysOut sys_munmap(Process& proc, Addr addr, std::uint64_t len, std::int32_t core = -1);
  SysOut sys_brk(Process& proc, Addr new_break);
  SysOut sys_mprotect(Process& proc, Addr addr, std::uint64_t len, Prot prot);
  SysOut sys_mlock(Process& proc, Addr addr, std::uint64_t len);

  // --- memory access -----------------------------------------------------
  /// First-touch every page of [range); faults are charged, recorded in
  /// the process stats/trace, and already-mapped spans are skipped at
  /// leaf granularity. Returns consumed cycles. Callers slice large
  /// ranges so daemons interleave. `core` >= 0 overrides proc.core()
  /// for threaded apps faulting one address space from many CPUs.
  Cycles touch_range(Process& proc, Range range, std::int32_t core = -1);

  /// Wall cycles for a compute burst: `cpu_work` on-core cycles plus
  /// `mem_accesses` memory references with the given locality, dilated
  /// by scheduler contention, TLB translation costs for the process's
  /// current mapping mix, and bandwidth contention.
  Cycles compute_burst(Process& proc, Cycles cpu_work, std::uint64_t mem_accesses,
                       double locality);

  // --- kernel-space allocation (the kernel-build churn model) ---------------
  [[nodiscard]] std::optional<Addr> kernel_alloc(ZoneId zone, unsigned order);
  void kernel_free(ZoneId zone, Addr addr, unsigned order);

  // --- component access ------------------------------------------------------
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const hw::MachineSpec& spec() const noexcept { return config_.machine; }
  [[nodiscard]] mm::MemorySystem& memory() noexcept { return *memory_; }
  [[nodiscard]] hw::PhysicalMemory& phys() noexcept { return phys_; }
  [[nodiscard]] hw::BandwidthModel& bandwidth() noexcept { return bw_; }
  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] mm::ThpService* thp() noexcept { return thp_.get(); }
  [[nodiscard]] mm::HugetlbPool* hugetlb() noexcept { return hugetlb_.get(); }
  [[nodiscard]] core::HpmmapModule* hpmmap_module() noexcept { return module_.get(); }
  [[nodiscard]] mm::SmpDomain* smp() noexcept { return smp_.get(); }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] const NodeConfig& config() const noexcept { return config_; }
  /// Visit every process ever spawned (dead ones included; check
  /// `alive()`). Deterministic spawn order; the auditor's sweep.
  template <typename Fn>
  void for_each_process(Fn&& fn) const {
    for (const auto& p : processes_) {
      fn(*p);
    }
  }
  [[nodiscard]] std::size_t process_count() const noexcept { return processes_.size(); }
  [[nodiscard]] double seconds(Cycles c) const noexcept { return config_.machine.seconds(c); }
  /// The swap model's anon LRU (see anon_lru_ below).
  [[nodiscard]] const AnonLru& anon_lru() const noexcept { return anon_lru_; }
  /// Cumulative anonymous 4K pages evicted to swap (vmstat's pswpout).
  [[nodiscard]] std::uint64_t swapped_out_total() const noexcept { return swapped_out_total_; }

 private:
  friend struct hpmmap::snapshot::Access;

  void age_system();
  /// One kswapd wakeup: rebalance every zone, then re-arm the timer.
  /// Extracted from the schedule_kswapd() lambda so snapshot restore can
  /// re-arm the identical callback.
  void kswapd_tick();
  /// Under sustained pressure with the page cache spent, reclaim evicts
  /// anonymous 4K pages to swap (kswapd's anon LRU). Victims refault
  /// with a disk read. HPMMAP-backed memory lives in offlined frames
  /// reclaim never sees — the isolation claim of §III-A.
  void maybe_swap(ZoneId zone);
  /// The process spawned with `pid`, or nullptr. O(1): pids are handed
  /// out densely from kFirstPid and processes_ never shrinks.
  [[nodiscard]] Process* find_process(Pid pid) const noexcept;
  SysOut linux_mmap(Process& proc, std::uint64_t len, Prot prot, Segment seg,
                    std::int32_t core = -1);
  SysOut linux_brk(Process& proc, Addr new_break);
  /// Unmap and free every backed page in [range) of a Linux-managed
  /// process; returns cycles. Coalesces physically contiguous 4K frames
  /// into higher-order frees.
  Cycles release_linux_range(Process& proc, Range range, std::int32_t core = -1);
  void schedule_kswapd();
  [[nodiscard]] bool is_hpmmap_call(const Process& proc, Cycles& hash_cost) const;

  sim::Engine& engine_;
  NodeConfig config_;
  hw::PhysicalMemory phys_;
  hw::BandwidthModel bw_;
  hw::TlbModel tlb_;
  // Module load offlines memory *before* the Linux memory system builds
  // its zone freelists (declaration order is load-bearing).
  std::unique_ptr<core::HpmmapModule> module_;
  std::unique_ptr<mm::MemorySystem> memory_;
  std::unique_ptr<mm::ThpService> thp_;
  std::unique_ptr<mm::HugetlbPool> hugetlb_;
  std::unique_ptr<mm::FaultHandler> fault_handler_;
  std::unique_ptr<mm::SmpDomain> smp_;
  Scheduler scheduler_;
  Rng rng_;
  std::vector<std::unique_ptr<Process>> processes_;
  static constexpr Pid kFirstPid = 1000;
  Pid next_pid_ = kFirstPid;
  sim::EventId kswapd_event_{};
  // Anon LRU for the swap model: oldest remembered pages are the eviction
  // victims. Bounded at AnonLru::kCap pages. Pages of exited or unmapped
  // processes stay until maybe_swap pops and skips them.
  AnonLru anon_lru_;
  std::uint64_t swapped_out_total_ = 0;
  // Failed-fault warnings are per-fault under memory exhaustion; budget
  // them so pathological configs don't flood benchmark output.
  LogLimiter fault_warn_limiter_{10};
};

} // namespace hpmmap::os
