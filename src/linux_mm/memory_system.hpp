// The Linux-side physical memory system: per-zone buddy allocators and
// page caches, plus the allocation slow path (watermarks, direct
// reclaim, compaction) every consumer goes through.
//
// alloc_pages() is the chokepoint that produces the paper's load
// sensitivity: on an idle machine it is a freelist pop; under a
// kernel-build workload the zone sits at its watermark, so the same call
// runs direct reclaim (LRU scan, occasionally a writeback stall with a
// Pareto tail) and, for order-9 requests, memory compaction.
//
// Compaction is implemented honestly: it scans 2M-aligned windows for
// one whose frames are all either free or movable (page-cache-owned),
// migrates the cache blocks out, and claims the now-contiguous window.
// Its success rate therefore *emerges* from fragmentation caused by the
// competing workload instead of being a tunable.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "hw/bandwidth.hpp"
#include "hw/phys_mem.hpp"
#include "linux_mm/buddy_allocator.hpp"
#include "linux_mm/cost_model.hpp"
#include "linux_mm/page_cache.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::mm {

/// Linux's order cap: blocks up to 4 MiB.
inline constexpr unsigned kLinuxMaxOrder = 10;
/// Order of a 2 MiB huge page.
inline constexpr unsigned kLargePageOrder = 9;

/// What an allocation had to do; the caller turns this into cycles and
/// classifies the fault for the traces.
struct AllocOutcome {
  Addr addr = 0;
  bool ok = false;
  unsigned split_steps = 0;
  bool entered_reclaim = false;
  bool entered_compaction = false;
  bool compaction_deferred = false; // failed recently; failed fast this time
  std::uint64_t reclaim_clean_blocks = 0;
  std::uint64_t reclaim_writeback_blocks = 0;
  std::uint64_t compaction_windows_scanned = 0;
  std::uint64_t compaction_migrated_bytes = 0;
};

class MemorySystem {
 public:
  MemorySystem(hw::PhysicalMemory& phys, hw::BandwidthModel& bw, Rng rng,
               const CostModel& costs);

  /// Allocate 4KiB<<order from `zone` with the full slow path.
  /// `allow_reclaim` is false for opportunistic callers.
  AllocOutcome alloc_pages(ZoneId zone, unsigned order, bool allow_reclaim = true);

  /// Up to `max_frames` order-0 frames from `zone`, exactly as that many
  /// successive alloc_pages(zone, 0) calls would hand them out on their
  /// fast path, popped as one buddy block (BuddyAllocator::alloc_frames).
  /// Bounded to the frames that keep the zone off its low and min
  /// watermarks, so none of them would have entered reclaim. Returns no
  /// frames when the zone is at a watermark, the fault injector is armed
  /// or the buddy trace category is on: the caller then takes each frame
  /// from alloc_pages(), which draws, reclaims and traces per call.
  [[nodiscard]] BuddyAllocator::FrameRun alloc_small_frames(ZoneId zone,
                                                            std::uint64_t max_frames);

  /// Fast free back to the zone buddy. Returns merge steps.
  unsigned free_pages(ZoneId zone, Addr addr, unsigned order);

  /// Convert an AllocOutcome to cycles (buddy work + reclaim +
  /// compaction; zeroing is charged separately because HugeTLBfs zeroes
  /// at a different rate).
  [[nodiscard]] Cycles alloc_cycles(const AllocOutcome& outcome, ZoneId zone);

  /// kswapd step: if `zone` is below its low watermark, shrink the page
  /// cache toward the high watermark. Returns bytes freed.
  std::uint64_t kswapd_balance(ZoneId zone);

  [[nodiscard]] BuddyAllocator& buddy(ZoneId zone);
  [[nodiscard]] const BuddyAllocator& buddy(ZoneId zone) const;
  [[nodiscard]] PageCache& cache(ZoneId zone);
  [[nodiscard]] std::uint32_t zone_count() const noexcept {
    return static_cast<std::uint32_t>(zones_.size());
  }

  [[nodiscard]] std::uint64_t free_bytes(ZoneId zone) const;
  [[nodiscard]] bool below_low_watermark(ZoneId zone) const;
  [[nodiscard]] bool below_min_watermark(ZoneId zone) const;
  /// Zone with the most free memory (fallback target, NUMA spill).
  [[nodiscard]] ZoneId fallback_zone(ZoneId preferred) const;

  [[nodiscard]] const CostModel& costs() const noexcept { return costs_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] hw::BandwidthModel& bandwidth() noexcept { return bw_; }
  [[nodiscard]] hw::PhysicalMemory& phys() noexcept { return phys_; }

  /// Effective page-zero cost for `size` bytes in `zone` right now.
  [[nodiscard]] Cycles zero_cost(ZoneId zone, std::uint64_t size, double rate_bytes_per_cycle);

  /// Rebuild zone state after memory offlining/onlining changed the
  /// online ranges (HPMMAP module load/unload). The kernel requires
  /// quiesced zones for hot-remove, and so do we: rebuilding discards
  /// allocation state, so it must happen before any workload starts.
  void rebuild_zones();

 private:
  friend struct hpmmap::snapshot::Access;

  struct ZoneState {
    BuddyAllocator buddy;
    PageCache cache;
    std::uint64_t online_bytes;
    Addr compact_cursor;            // rotates through candidate 2M windows
    unsigned compact_defer = 0;     // defer_compaction(): skip attempts after failure
    ZoneState(Range r, std::uint64_t online)
        : buddy(r, kLinuxMaxOrder), cache(buddy), online_bytes(online),
          compact_cursor(r.begin) {}
  };

  /// Honest compaction: try to assemble a free order-kLargePageOrder
  /// window by migrating page-cache blocks. On success the window base
  /// is returned as a genuinely contiguous allocation.
  [[nodiscard]] std::optional<Addr> run_compaction(ZoneState& z, AllocOutcome& outcome);

  /// Can every frame of `window` be made free by migrating cache blocks?
  [[nodiscard]] bool window_movable(const ZoneState& z, Range window) const;

  hw::PhysicalMemory& phys_;
  hw::BandwidthModel& bw_;
  Rng rng_;
  CostModel costs_;
  // Contiguous, one per physical zone. ZoneState holds an internal
  // reference (cache -> buddy), so elements must never relocate:
  // rebuild_zones() reserves the full zone count before emplacing, and
  // nothing else grows the vector.
  std::vector<ZoneState> zones_;
};

} // namespace hpmmap::mm
