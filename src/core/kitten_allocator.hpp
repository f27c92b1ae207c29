// The Kitten-style block allocator HPMMAP imposes over offlined memory
// (§III-A: "HPMMAP again borrows from Kitten by using Kitten's buddy
// allocator to manage offlined memory").
//
// Structurally it is a buddy allocator like the Linux zone allocator,
// but with the LWK policy differences that matter:
//   - the max order spans whole offlined blocks (>= 128 MiB), so large
//     pages can *always* be carved without compaction;
//   - no watermarks, no reclaim, no page cache: allocation either
//     succeeds in O(log) or fails immediately;
//   - nothing below 2 MiB, the smallest page HPMMAP maps: the heaps'
//     buddies have min order 9, so they keep no 4 KiB-grain freelists;
//     nothing but their bitmaps records a free block;
//   - per-zone instances mirror the offlined split across NUMA zones.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "linux_mm/buddy_allocator.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::core {

struct KittenStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t failed = 0;
};

class KittenAllocator {
 public:
  /// The heaps' smallest block: order 9, one 2 MiB page.
  static constexpr unsigned kMinOrder = 9;

  /// Adopt a set of offlined physical ranges for `zone_count` zones;
  /// `ranges_per_zone[z]` are the hot-removed ranges of zone z.
  explicit KittenAllocator(std::vector<std::vector<Range>> ranges_per_zone);

  /// Allocate a naturally-aligned block of exactly `bytes` (a power-of-two
  /// multiple of 4K; 2M and 1G are the callers' sizes). Requests below
  /// 2 MiB are refused like an exhausted heap: nullopt, counted as failed.
  [[nodiscard]] std::optional<Addr> alloc(ZoneId zone, std::uint64_t bytes);

  void free(ZoneId zone, Addr addr, std::uint64_t bytes);

  [[nodiscard]] std::uint64_t free_bytes(ZoneId zone) const;
  [[nodiscard]] std::uint64_t total_bytes(ZoneId zone) const;
  [[nodiscard]] std::uint32_t zone_count() const noexcept {
    return static_cast<std::uint32_t>(zones_.size());
  }
  [[nodiscard]] const KittenStats& stats() const noexcept { return stats_; }

  /// True if every byte ever allocated has been freed (module unload
  /// sanity check).
  [[nodiscard]] bool all_free() const;

  /// True if the 4K frame at `addr` sits inside a free block of the
  /// zone's heaps (the invariant auditor asks this about mapped frames).
  [[nodiscard]] bool frame_is_free(ZoneId zone, Addr addr) const;

  /// Every underlying buddy passes its own consistency check.
  [[nodiscard]] bool check_consistency() const;

  /// Visit each underlying buddy allocator as (zone, buddy).
  template <typename Fn>
  void for_each_buddy(Fn&& fn) const {
    for (std::size_t z = 0; z < zones_.size(); ++z) {
      for (const mm::BuddyAllocator& buddy : zones_[z].buddies) {
        fn(static_cast<ZoneId>(z), buddy);
      }
    }
  }

 private:
  friend struct hpmmap::snapshot::Access;

  struct ZoneHeap {
    std::vector<mm::BuddyAllocator> buddies; // one per offlined range
  };
  std::vector<ZoneHeap> zones_;
  KittenStats stats_;
};

} // namespace hpmmap::core
