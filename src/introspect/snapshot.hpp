// Structured snapshots of live mm state — the record form behind the
// procfs renderers (introspect/procfs.hpp) and the telemetry sampler
// (introspect/sampler.hpp).
//
// Linux exposes this exact layer to userspace as /proc/buddyinfo,
// /proc/meminfo, /proc/vmstat, /proc/pagetypeinfo and per-process
// smaps; the paper's §IV methodology (and every figure tracking state
// over time — fragmentation decay, hugetlb pool drain, khugepaged
// progress) reads it from there. The capture functions here are pure
// observers: they consume no randomness, charge no cycles, emit no
// trace events and mutate nothing, so capturing a snapshot mid-run can
// never perturb a simulation — the determinism contract the sampler
// tests pin down.
//
// Capture reuses caller-owned record buffers (clear + refill, no
// reallocation once warm), keeping the periodic sampling path free of
// steady-state heap traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace hpmmap::os {
class Node;
class Process;
}

namespace hpmmap::introspect {

/// One /proc/buddyinfo row: free block counts per order for one zone's
/// buddy allocator (Linux or Kitten).
struct BuddyinfoZone {
  ZoneId zone = 0;
  /// "Normal" for Linux zones, "Kitten" for HPMMAP's offlined heaps.
  const char* zone_name = "Normal";
  /// free_counts[o] = free blocks of order o; sized max_order + 1.
  std::vector<std::uint64_t> free_counts;
};

/// /proc/meminfo totals, in bytes (the renderer divides to kB).
struct Meminfo {
  std::uint64_t mem_total = 0;      // Linux-online bytes
  std::uint64_t mem_free = 0;       // buddy freelists, all zones
  std::uint64_t cached = 0;         // page cache
  std::uint64_t anon_pages = 0;     // resident anon (incl. huge)
  std::uint64_t anon_huge_pages = 0; // 2M-backed portion of the above
  std::uint64_t page_tables = 0;    // table-structure pages, bytes
  std::uint64_t hugepages_total = 0; // hugetlb pool, pages
  std::uint64_t hugepages_free = 0;
  std::uint64_t hpmmap_offline = 0; // hot-removed bytes (module loaded)
  std::uint64_t hpmmap_free = 0;    // free bytes in the Kitten heaps
};

/// /proc/vmstat counters — cumulative event counts since boot.
struct Vmstat {
  std::uint64_t pgfault = 0;          // all process faults, all kinds
  std::uint64_t pgalloc = 0;          // buddy allocations, all zones
  std::uint64_t pgfree = 0;           // buddy frees, all zones
  std::uint64_t pswpout = 0;          // anon pages evicted to swap
  std::uint64_t thp_fault_alloc = 0;  // huge-page faults served
  std::uint64_t thp_fault_fallback = 0;
  std::uint64_t thp_collapse_alloc = 0; // khugepaged merges completed
  std::uint64_t thp_collapse_abort = 0;
  std::uint64_t thp_split_page = 0;     // splits for mlock
  std::uint64_t htlb_fault_alloc = 0;   // hugetlb faults served
  std::uint64_t htlb_pool_exhausted = 0;
  std::uint64_t compact_stall = 0;      // direct-compaction entries
  std::uint64_t allocstall = 0;         // direct-reclaim entries
};

/// One /proc/pagetypeinfo row: per-zone counts of block heads by owner
/// and order, each from its owner's own record: the buddy's bitmaps, the
/// page-cache LRU, the hugetlb pool stack and the pcp lists.
struct PagetypeinfoZone {
  /// The owners, in the order the rows print.
  enum Owner : std::size_t {
    kBuddyFree,
    kCacheClean,
    kCacheDirty,
    kHugetlbPool,
    kPcpCache,
    kOwnerCount
  };
  ZoneId zone = 0;
  /// counts[owner][order], order 0..max_order.
  std::vector<std::vector<std::uint64_t>> counts;
};

/// One smaps entry: a VMA plus its resident-set breakdown by the page
/// size actually backing it (the /proc/<pid>/smaps Rss/AnonHugePages
/// decomposition, extended with a 1G bucket for the HPMMAP window).
struct SmapsVma {
  Range range{};
  Prot prot = Prot::kNone;
  /// mm::name(VmaKind) for Linux VMAs, "hpmmap" for module regions.
  const char* kind = "anon";
  bool thp_eligible = false;
  bool locked = false;
  bool hpmmap = false;       // lives in the module window
  std::uint64_t rss_4k = 0;  // bytes resident via 4K leaves
  std::uint64_t rss_2m = 0;  // bytes resident via 2M leaves
  std::uint64_t rss_1g = 0;  // bytes resident via 1G leaves
  std::uint64_t swapped = 0; // bytes swapped out of this VMA

  [[nodiscard]] std::uint64_t rss() const noexcept { return rss_4k + rss_2m + rss_1g; }
};

/// Per-process smaps: every Linux VMA plus every HPMMAP region, in
/// ascending address order within each group.
struct SmapsProcess {
  Pid pid = 0;
  std::string name;
  const char* policy = "?";
  std::vector<SmapsVma> vmas;
};

// --- capture ----------------------------------------------------------
// Each function clears and refills `out`; repeated captures into the
// same record reuse its buffers.

/// Linux zones first, then (when the module is loaded) one Kitten row
/// per offlined heap range.
void capture_buddyinfo(os::Node& node, std::vector<BuddyinfoZone>& out);
void capture_meminfo(os::Node& node, Meminfo& out);
void capture_vmstat(os::Node& node, Vmstat& out);
void capture_pagetypeinfo(os::Node& node, std::vector<PagetypeinfoZone>& out);
/// Smaps for one process: one page-table walk buckets every leaf into
/// the VMA containing it (Linux tree first, module regions for leaves
/// in the HPMMAP window).
void capture_smaps(os::Node& node, const os::Process& proc, SmapsProcess& out);

} // namespace hpmmap::introspect
