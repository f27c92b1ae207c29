// Unit tests: page cache, watermarks, reclaim, and honest compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/bandwidth.hpp"
#include "hw/phys_mem.hpp"
#include "linux_mm/memory_system.hpp"

namespace hpmmap::mm {
namespace {

struct Fixture {
  hw::PhysicalMemory phys{2 * GiB, 2}; // 1 GiB per zone
  hw::BandwidthModel bw{2, 5.6};
  CostModel costs{};
  MemorySystem ms{phys, bw, Rng(77), costs};
};

TEST(PageCache, GrowAndShrinkBalance) {
  Fixture f;
  PageCache& cache = f.ms.cache(0);
  const std::uint64_t before = f.ms.free_bytes(0);
  const std::uint64_t got = cache.grow(64 * MiB, 2, false);
  EXPECT_EQ(got, 64 * MiB);
  EXPECT_EQ(f.ms.free_bytes(0), before - 64 * MiB);
  const auto shrink = cache.shrink(64 * MiB);
  EXPECT_EQ(shrink.bytes_freed, 64 * MiB);
  EXPECT_EQ(f.ms.free_bytes(0), before);
  EXPECT_EQ(cache.cached_bytes(), 0u);
}

TEST(PageCache, DirtyFractionTracksWriteback) {
  Fixture f;
  PageCache& cache = f.ms.cache(0);
  cache.set_dirty_fraction(0.5);
  cache.grow(16 * MiB, 0, false);
  const auto shrink = cache.shrink(16 * MiB);
  const double dirty_share =
      static_cast<double>(shrink.writeback_blocks) /
      static_cast<double>(shrink.writeback_blocks + shrink.clean_blocks);
  EXPECT_NEAR(dirty_share, 0.5, 0.05);
}

TEST(PageCache, ForcedDirtyAlwaysWritesBack) {
  Fixture f;
  PageCache& cache = f.ms.cache(0);
  cache.grow(4 * MiB, 0, /*dirty=*/true);
  const auto shrink = cache.shrink(4 * MiB);
  EXPECT_EQ(shrink.clean_blocks, 0u);
  EXPECT_GT(shrink.writeback_blocks, 0u);
}

TEST(PageCache, RespectsFreeFloor) {
  Fixture f;
  PageCache& cache = f.ms.cache(0);
  cache.set_free_floor(512 * MiB);
  cache.grow(2 * GiB, 2, false); // wants more than allowed
  EXPECT_GE(f.ms.free_bytes(0), 512 * MiB - 256 * KiB);
}

TEST(PageCache, BlockContainingAndRelocate) {
  Fixture f;
  PageCache& cache = f.ms.cache(0);
  cache.grow(BuddyAllocator::order_bytes(3), 3, false);
  // Find the block it allocated.
  bool found = false;
  for (Addr probe = 0; probe < 64 * MiB && !found; probe += 4 * KiB) {
    if (auto blk = cache.block_containing(probe)) {
      found = true;
      EXPECT_EQ(blk->second, 3u);
      // Relocate it and verify the index moved.
      const PageCache::Move move{blk->first, blk->first + 32 * MiB};
      cache.relocate({&move, 1});
      EXPECT_FALSE(cache.block_containing(blk->first).has_value());
      EXPECT_TRUE(cache.block_containing(blk->first + 32 * MiB).has_value());
    }
  }
  EXPECT_TRUE(found);
}

TEST(PageCache, ClearReturnsEverything) {
  Fixture f;
  PageCache& cache = f.ms.cache(1);
  const std::uint64_t before = f.ms.free_bytes(1);
  cache.grow(32 * MiB, 1, false);
  cache.clear();
  EXPECT_EQ(f.ms.free_bytes(1), before);
}

TEST(MemorySystem, FastPathAllocSucceeds) {
  Fixture f;
  const AllocOutcome out = f.ms.alloc_pages(0, 0);
  EXPECT_TRUE(out.ok);
  EXPECT_FALSE(out.entered_reclaim);
  f.ms.free_pages(0, out.addr, 0);
}

TEST(MemorySystem, WatermarksComputedFromOnlineBytes) {
  Fixture f;
  EXPECT_FALSE(f.ms.below_low_watermark(0));
  // Eat nearly everything: 1 GiB zone, low watermark 4% = ~41 MiB.
  std::vector<Addr> blocks;
  while (f.ms.free_bytes(0) > 30 * MiB) {
    auto a = f.ms.buddy(0).alloc(10);
    if (!a.has_value()) {
      break;
    }
    blocks.push_back(a->addr);
  }
  EXPECT_TRUE(f.ms.below_low_watermark(0));
  for (Addr a : blocks) {
    f.ms.free_pages(0, a, 10);
  }
  EXPECT_FALSE(f.ms.below_low_watermark(0));
}

TEST(MemorySystem, ReclaimShrinksCacheWhenLow) {
  Fixture f;
  // Fill most of zone 0 with cache, then allocate to the watermark.
  f.ms.cache(0).grow(900 * MiB, 3, false);
  std::vector<Addr> anon;
  while (!f.ms.below_low_watermark(0)) {
    auto a = f.ms.buddy(0).alloc(8);
    if (!a.has_value()) {
      break;
    }
    anon.push_back(a->addr);
  }
  const std::uint64_t cache_before = f.ms.cache(0).cached_bytes();
  const AllocOutcome out = f.ms.alloc_pages(0, 0, /*allow_reclaim=*/true);
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(out.entered_reclaim);
  EXPECT_LT(f.ms.cache(0).cached_bytes(), cache_before);
}

TEST(MemorySystem, OpportunisticPathRefusesSlowWork) {
  Fixture f;
  f.ms.cache(0).grow(2 * GiB, 3, false); // cache takes everything above floor
  // Now grab the remaining free memory so we are below the low watermark.
  std::vector<Addr> anon;
  while (!f.ms.below_low_watermark(0)) {
    auto a = f.ms.buddy(0).alloc(8);
    if (!a.has_value()) {
      break;
    }
    anon.push_back(a->addr);
  }
  const AllocOutcome out = f.ms.alloc_pages(0, 0, /*allow_reclaim=*/false);
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.entered_reclaim);
}

TEST(MemorySystem, OpportunisticMissCountsOneFailedAlloc) {
  Fixture f;
  // Hold every 1 MiB block, then free the lower half of each 2 MiB pair:
  // half the zone is free, well above the low watermark, but no free
  // order-8 block has a free buddy, so no order-9 block exists.
  BuddyAllocator& buddy = f.ms.buddy(0);
  const Addr begin = buddy.range().begin;
  std::vector<Addr> held;
  while (auto a = buddy.alloc(8)) {
    held.push_back(a->addr);
  }
  for (const Addr a : held) {
    if ((a - begin) % BuddyAllocator::order_bytes(9) == 0) {
      f.ms.free_pages(0, a, 8);
    }
  }
  ASSERT_FALSE(f.ms.below_low_watermark(0));
  ASSERT_FALSE(buddy.can_alloc(9));
  const std::uint64_t failed = buddy.stats().failed_allocs;
  const AllocOutcome out = f.ms.alloc_pages(0, 9, /*allow_reclaim=*/false);
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.entered_reclaim);
  EXPECT_EQ(buddy.stats().failed_allocs, failed + 1);
}

TEST(MemorySystem, KswapdBalancesTowardHighWatermark) {
  Fixture f;
  f.ms.cache(0).grow(900 * MiB, 3, false);
  std::vector<Addr> anon;
  while (!f.ms.below_low_watermark(0)) {
    auto a = f.ms.buddy(0).alloc(8);
    if (!a.has_value()) {
      break;
    }
    anon.push_back(a->addr);
  }
  const std::uint64_t freed = f.ms.kswapd_balance(0);
  EXPECT_GT(freed, 0u);
  EXPECT_FALSE(f.ms.below_low_watermark(0));
  EXPECT_EQ(f.ms.kswapd_balance(0), 0u); // already balanced
}

TEST(MemorySystem, CompactionAssemblesContiguous2M) {
  Fixture f;
  // Build the canonical compaction scenario: every 2M window holds
  // movable cache blocks plus a small free hole — nothing contiguous,
  // nothing unmovable.
  PageCache& cache = f.ms.cache(0);
  cache.set_free_floor(0);
  BuddyAllocator& buddy = f.ms.buddy(0);
  std::vector<Addr> pages;
  while (auto a = buddy.alloc(0)) {
    pages.push_back(a->addr);
  }
  // Shuffle so the cache LRU order is scattered: reclaim then frees
  // non-contiguous pages and cannot substitute for compaction.
  Rng shuffler(123);
  std::shuffle(pages.begin(), pages.end(), shuffler);
  for (Addr p : pages) {
    // Free one 64K-aligned hole per 2M window; adopt the rest as cache.
    if ((p % kLargePageSize) < 64 * KiB) {
      buddy.free(p, 0);
    } else {
      cache.adopt(p, 0, false);
    }
  }
  EXPECT_FALSE(buddy.can_alloc(kLargePageOrder));
  const AllocOutcome out = f.ms.alloc_pages(0, kLargePageOrder, /*allow_reclaim=*/true);
  ASSERT_TRUE(out.ok);
  EXPECT_TRUE(out.entered_compaction);
  EXPECT_GT(out.compaction_migrated_bytes, 0u);
  EXPECT_TRUE(is_aligned(out.addr, kLargePageSize));
  // The block is genuinely ours: freeing it round-trips cleanly.
  f.ms.free_pages(0, out.addr, kLargePageOrder);
  EXPECT_TRUE(f.ms.buddy(0).check_consistency());
}

/// A one-zone system small enough to lay out window by window: 64 windows
/// of 2M, where window 0 is the only movable one.
struct CompactionFixture {
  hw::PhysicalMemory phys{128 * MiB, 1};
  hw::BandwidthModel bw{1, 5.6};
  CostModel costs{};
  MemorySystem ms{phys, bw, Rng(7), costs};
  PageCache& cache = ms.cache(0);
  BuddyAllocator& buddy = ms.buddy(0);
  Range zone = buddy.range();

  /// Take every page, then fill window 0 with order-4 cache blocks,
  /// leaving the blocks at the `holes` offsets free.
  explicit CompactionFixture(const std::vector<Addr>& holes) {
    cache.set_free_floor(0);
    while (buddy.alloc(0).has_value()) {
    }
    for (Addr off = 0; off < kLargePageSize; off += 64 * KiB) {
      if (std::find(holes.begin(), holes.end(), off) != holes.end()) {
        buddy.free(zone.begin + off, 4);
      } else {
        cache.adopt(zone.begin + off, 4, false);
      }
    }
  }

  /// Free every other 4K page of windows [first, 64): plenty of free
  /// memory (no reclaim), none of it order 1 or above, and every window
  /// keeps unmovable pages.
  void scatter_small_holes(std::uint64_t first) {
    for (Addr a = zone.begin + first * kLargePageSize; a < zone.end; a += 8 * KiB) {
      buddy.free(a, 0);
    }
  }

  [[nodiscard]] std::uint64_t free_plus_cached() const {
    return ms.free_bytes(0) + cache.cached_bytes();
  }
};

TEST(MemorySystem, FailedCompactionReturnsVacatedFrames) {
  // Window 0 is 32 order-4 cache blocks; exactly one order-4 target
  // exists elsewhere (window 1's first 64K), so the first block migrates
  // and the second finds no target.
  CompactionFixture f({});
  for (Addr a = f.zone.begin + kLargePageSize; a < f.zone.begin + kLargePageSize + 64 * KiB;
       a += 4 * KiB) {
    f.buddy.free(a, 0);
  }
  f.scatter_small_holes(2);
  ASSERT_EQ(f.buddy.free_blocks(4), 1u);
  const std::uint64_t before = f.free_plus_cached();
  const AllocOutcome out = f.ms.alloc_pages(0, kLargePageOrder, /*allow_reclaim=*/true);
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.entered_compaction);
  EXPECT_EQ(out.compaction_migrated_bytes, 64 * KiB);
  // No frame is lost: the migrated block's old frames are free again.
  EXPECT_EQ(f.free_plus_cached(), before);
  EXPECT_TRUE(f.buddy.check_consistency());
  EXPECT_EQ(f.cache.block_count(), 32u);
}

TEST(MemorySystem, CompactionMigratesEachBlockOnce) {
  // Window 0's only hole is its last 64K. Claimed as the scan reaches
  // it, that hole would be the lowest order-4 target for the first
  // block, which would then migrate a second time; claimed up front,
  // each of the 31 blocks migrates once, out of the window.
  CompactionFixture f({kLargePageSize - 64 * KiB});
  // 32 targets elsewhere: the first half of windows 1 and 2, one free
  // order-8 block each; their second halves stay pinned.
  for (const std::uint64_t w : {1u, 2u}) {
    const Addr half = f.zone.begin + w * kLargePageSize;
    for (Addr a = half; a < half + MiB; a += 4 * KiB) {
      f.buddy.free(a, 0);
    }
  }
  f.scatter_small_holes(3);
  ASSERT_FALSE(f.buddy.can_alloc(kLargePageOrder));
  const std::uint64_t before = f.free_plus_cached();
  const AllocOutcome out = f.ms.alloc_pages(0, kLargePageOrder, /*allow_reclaim=*/true);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.addr, f.zone.begin);
  EXPECT_EQ(out.compaction_migrated_bytes, 31 * 64 * KiB);
  EXPECT_EQ(f.cache.block_count(), 31u);
  f.cache.for_each_lru([&](Addr a, unsigned o, bool) {
    EXPECT_GE(a, f.zone.begin + kLargePageSize);
    EXPECT_EQ(o, 4u);
  });
  EXPECT_EQ(f.free_plus_cached() + kLargePageSize, before);
}

TEST(MemorySystem, CompactionFailsAgainstUnmovablePages) {
  Fixture f;
  // Shatter zone 0 with *unmovable* allocations: every 2M window is
  // polluted, so compaction cannot assemble anything.
  std::vector<Addr> pins;
  const Range zr = f.ms.buddy(0).range();
  for (Addr w = zr.begin; w + kLargePageSize <= zr.end; w += kLargePageSize) {
    auto a = f.ms.buddy(0).alloc(0);
    if (!a.has_value()) {
      break;
    }
    pins.push_back(a->addr); // buddy pops lowest-first: pollutes windows in order
  }
  // pins now occupy the first pages of the zone contiguously; spread is
  // imperfect, but the prefix windows are definitely polluted. Ask only
  // whether a successful alloc, if any, is properly aligned and never
  // overlaps a pinned page.
  const AllocOutcome out = f.ms.alloc_pages(0, kLargePageOrder, /*allow_reclaim=*/true);
  if (out.ok) {
    const Range got{out.addr, out.addr + kLargePageSize};
    for (Addr p : pins) {
      EXPECT_FALSE(got.contains(p));
    }
  }
}

TEST(MemorySystem, CompactionDefersAfterFailure) {
  Fixture f;
  // Make compaction impossible: pin unmovable pages everywhere.
  while (f.ms.buddy(0).alloc(0).has_value()) {
  }
  AllocOutcome first = f.ms.alloc_pages(0, kLargePageOrder, /*allow_reclaim=*/true);
  EXPECT_FALSE(first.ok);
  AllocOutcome second = f.ms.alloc_pages(0, kLargePageOrder, /*allow_reclaim=*/true);
  EXPECT_FALSE(second.ok);
  EXPECT_TRUE(second.compaction_deferred); // fail-fast after a failed attempt
}

TEST(MemorySystem, AllocCyclesScaleWithWork) {
  Fixture f;
  AllocOutcome fast;
  fast.ok = true;
  const Cycles fast_cost = f.ms.alloc_cycles(fast, 0);
  AllocOutcome reclaim = fast;
  reclaim.entered_reclaim = true;
  reclaim.reclaim_clean_blocks = 64;
  const Cycles reclaim_cost = f.ms.alloc_cycles(reclaim, 0);
  EXPECT_GT(reclaim_cost, fast_cost + f.ms.costs().reclaim_batch_base);
  AllocOutcome writeback = reclaim;
  writeback.reclaim_writeback_blocks = 8;
  const Cycles wb_cost = f.ms.alloc_cycles(writeback, 0);
  EXPECT_GT(wb_cost, reclaim_cost + f.ms.costs().reclaim_writeback / 2);
}

TEST(MemorySystem, ZeroCostDegradesUnderContention) {
  Fixture f;
  const Cycles idle = f.ms.zero_cost(0, 2 * MiB, 6.0);
  auto c = f.bw.register_consumer();
  f.bw.set_demand(c, 0, 20.0); // saturate the channel
  const Cycles loaded = f.ms.zero_cost(0, 2 * MiB, 6.0);
  EXPECT_GT(loaded, idle * 2);
}

TEST(MemorySystem, FallbackZonePicksMostFree) {
  Fixture f;
  // Drain zone 0.
  while (f.ms.buddy(0).alloc(10).has_value()) {
  }
  EXPECT_EQ(f.ms.fallback_zone(0), 1u);
}

TEST(MemorySystem, RebuildAfterOffline) {
  hw::PhysicalMemory phys(2 * GiB, 2);
  hw::BandwidthModel bw(2, 5.6);
  CostModel costs;
  (void)phys.offline_bytes(0, 512 * MiB);
  MemorySystem ms(phys, bw, Rng(5), costs);
  EXPECT_EQ(ms.buddy(0).total_bytes(), 512 * MiB);
  EXPECT_EQ(ms.buddy(1).total_bytes(), 1 * GiB);
}

} // namespace
} // namespace hpmmap::mm
