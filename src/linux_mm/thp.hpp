// Transparent Huge Pages: the fault-path huge allocation and the
// khugepaged background merge daemon (§II-B).
//
// Both components are faithful to the kernel's structure:
//  - the fault handler asks try_fault_huge() first; success depends on
//    VMA alignment/coverage, absence of existing 4K mappings in the 2M
//    region, and the zone allocator producing an order-9 block (possibly
//    via direct compaction);
//  - khugepaged periodically picks a registered process, finds a 2M
//    region with enough 4K-mapped pages, allocates a huge page, and
//    performs the merge *while holding the process's page-table lock* —
//    every fault arriving during the merge waits (the "Merge" rows in
//    Figure 2 and the blue dots in Figure 4).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "linux_mm/address_space.hpp"
#include "linux_mm/memory_system.hpp"
#include "sim/engine.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::mm {

struct ThpStats {
  std::uint64_t fault_huge_success = 0;
  std::uint64_t fault_huge_fallback = 0;
  std::uint64_t merges_completed = 0;
  std::uint64_t merges_aborted = 0; // process exit, region churn, or injected
  std::uint64_t merge_candidates_scanned = 0;
  std::uint64_t split_on_mlock = 0;
  Cycles total_merge_lock_cycles = 0;
};

class ThpService {
 public:
  /// `load_probe` reports whether the node currently runs competing
  /// CPU work — preempted merges hold the PT lock far longer (§II-B).
  ThpService(MemorySystem& memory, sim::Engine& engine,
             std::function<double()> load_factor_probe);

  // --- registration ---------------------------------------------------
  void register_process(AddressSpace* as);
  void unregister_process(AddressSpace* as);

  // --- fault path --------------------------------------------------------
  struct HugeFaultResult {
    bool ok = false;
    Addr phys = 0;
    AllocOutcome alloc;
  };
  /// Try to satisfy a fault at `vaddr` inside `vma` with a 2M page.
  HugeFaultResult try_fault_huge(AddressSpace& as, const Vma& vma, Addr vaddr);

  /// A fault in a region that already holds one of its own 4K pages:
  /// try_fault_huge() would find the region ineligible and count the
  /// fallback, and this counts it without the page-table probe.
  void fallback_in_small_region() noexcept { ++stats_.fault_huge_fallback; }

  /// Whether the 2M region around `vaddr` is even eligible (alignment +
  /// VMA coverage + no prior mappings). Split out for tests.
  [[nodiscard]] bool region_eligible(const AddressSpace& as, const Vma& vma, Addr vaddr) const;

  /// khugepaged_enter(): the fault path fell back to a small page in a
  /// THP-eligible VMA; queue the region so the daemon revisits it. This
  /// is why merges land exactly where the application is faulting —
  /// the noise-injection mechanism of Figure 4.
  void note_fallback(AddressSpace* as, Addr vaddr);

  // --- khugepaged ----------------------------------------------------------
  /// Begin periodic scanning on the simulation clock.
  void start_khugepaged(double clock_hz);
  void stop_khugepaged();

  /// One scan step (exposed for tests; normally event-driven).
  void scan_once();

  // --- mlock interaction ------------------------------------------------
  /// Pinning splits every large page in the range into small pages
  /// before locking (§II-B: "the page is first split into small pages
  /// and then pinned"). Returns number of 2M leaves split.
  unsigned split_for_mlock(AddressSpace& as, Range range);

  [[nodiscard]] const ThpStats& stats() const noexcept { return stats_; }

 private:
  friend struct hpmmap::snapshot::Access;

  struct MergeCandidate {
    AddressSpace* as;
    Addr region; // 2M-aligned virtual base
    unsigned mapped_small;
  };
  // In-flight daemon work is token-registered rather than captured in
  // anonymous lambda closures so snapshot restore can re-arm the exact
  // pending events: each scheduled continuation is a named member keyed
  // by a token that looks up its state here.
  struct PendingCollapse {
    std::uint64_t token;
    AddressSpace* as;
    Addr region;
    unsigned mapped_small;
    sim::EventId event{};
  };
  struct PendingMerge {
    std::uint64_t token;
    AddressSpace* as;
    Addr region;
    Addr huge_phys;
    sim::EventId event{};
  };
  [[nodiscard]] std::optional<MergeCandidate> find_candidate();
  void perform_merge(const MergeCandidate& candidate);
  void schedule_next_scan();
  void scan_tick();
  void wake_tick();
  void collapse_tick(std::uint64_t token);
  void finish_merge(std::uint64_t token);

  MemorySystem& memory_;
  sim::Engine& engine_;
  std::function<double()> load_factor_;
  std::vector<AddressSpace*> processes_;
  std::deque<std::pair<AddressSpace*, Addr>> enter_queue_; // recent fallbacks
  std::set<std::pair<AddressSpace*, Addr>> inflight_;      // merges not yet completed
  std::size_t scan_rr_ = 0;  // round-robin over processes
  Addr scan_cursor_ = 0;     // resumes inside a process's address space
  Cycles scan_period_ = 0;
  Cycles last_scan_ = 0;
  bool running_ = false;
  sim::EventId pending_scan_{};
  sim::EventId wake_pending_{};
  std::vector<PendingCollapse> pending_collapses_;
  std::vector<PendingMerge> pending_merges_;
  std::uint64_t next_token_ = 1;
  ThpStats stats_;
};

} // namespace hpmmap::mm
