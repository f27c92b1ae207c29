// The page cache's records and the hugetlb pools: the per-order index
// behind block_containing(), and a differential test that drives the
// cache's LRU, its index and the hugetlb pool stacks and pooled bits
// against std::deque, std::map and std::vector models through random op
// sequences — results, accounting and list order must agree at every
// step.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/bandwidth.hpp"
#include "hw/phys_mem.hpp"
#include "linux_mm/buddy_allocator.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/memory_system.hpp"
#include "linux_mm/page_cache.hpp"

namespace hpmmap {
namespace {

constexpr Addr kBase = 16 * MiB;

/// A 64 MiB Linux-shaped zone, all free.
mm::BuddyAllocator make_zone() {
  return mm::BuddyAllocator(Range{kBase, kBase + 64 * MiB}, mm::kLinuxMaxOrder);
}

TEST(PageCache, BlockContainingProbesEveryOrder) {
  mm::BuddyAllocator buddy = make_zone();
  mm::PageCache cache(buddy);
  // A 2M block at kBase + 2M: every interior address resolves to its head.
  const Addr block = kBase + 2 * MiB;
  ASSERT_TRUE(buddy.take_free_block(kBase, mm::kLinuxMaxOrder));
  cache.adopt(block, 9, /*dirty=*/false);
  for (const Addr probe : {block, block + 4 * KiB, block + 2 * MiB - 1}) {
    const auto hit = cache.block_containing(probe);
    ASSERT_TRUE(hit.has_value()) << "probe " << probe;
    EXPECT_EQ(hit->first, block);
    EXPECT_EQ(hit->second, 9u);
  }
  EXPECT_FALSE(cache.block_containing(block - 4 * KiB).has_value());
  EXPECT_FALSE(cache.block_containing(block + 2 * MiB).has_value());
  // Outside the zone misses without asserting.
  EXPECT_FALSE(cache.block_containing(kBase - 4 * KiB).has_value());
  EXPECT_FALSE(cache.block_containing(kBase + 64 * MiB).has_value());
  // An order-0 block is found at exactly its own frame.
  cache.adopt(kBase + 12 * KiB, 0, /*dirty=*/true);
  EXPECT_EQ(cache.block_containing(kBase + 12 * KiB), std::make_pair(kBase + 12 * KiB, 0u));
  EXPECT_FALSE(cache.block_containing(kBase + 16 * KiB).has_value());
}

TEST(PageCache, BlockContainingRequiresMatchingOrder) {
  mm::BuddyAllocator buddy = make_zone();
  mm::PageCache cache(buddy);
  // An order-3 block at kBase: its second frame's order-0 align-down is
  // itself (not indexed), and the order-3 align-down is the head.
  ASSERT_TRUE(buddy.take_free_block(kBase, mm::kLinuxMaxOrder));
  cache.adopt(kBase, 3, /*dirty=*/true);
  EXPECT_EQ(cache.block_containing(kBase + 4 * KiB), std::make_pair(kBase, 3u));
  EXPECT_EQ(cache.block_containing(kBase + 32 * KiB), std::nullopt);
}

TEST(PageCache, IndexIsSizedOnFirstInsertAndWalksByOrderThenAddress) {
  mm::BuddyAllocator buddy = make_zone();
  mm::PageCache cache(buddy);
  const std::uint64_t empty = cache.host_bytes();
  cache.shrink(4 * MiB);
  cache.clear();
  EXPECT_EQ(cache.host_bytes(), empty) << "a cache that never held a block keeps no bitmap";
  ASSERT_GT(cache.grow(64 * KiB, 0, false), 0u);
  ASSERT_GT(cache.grow(64 * KiB, 2, false), 0u);
  EXPECT_GT(cache.host_bytes(), empty);
  std::vector<std::pair<Addr, unsigned>> seen;
  cache.for_each_block([&](Addr a, unsigned o) { seen.emplace_back(a, o); });
  EXPECT_EQ(seen.size(), cache.block_count());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end(), [](const auto& x, const auto& y) {
    return x.second != y.second ? x.second < y.second : x.first < y.first;
  }));
}

// ---------------------------------------------------------------------------
// Differential property test: the page-cache LRU and index and the
// hugetlb pool stacks vs std::deque / std::map / std::vector models.
// ---------------------------------------------------------------------------

struct CachedBlock {
  Addr addr;
  unsigned order;
  bool dirty;
  bool operator==(const CachedBlock&) const = default;
};

/// The cache's LRU walk must be the model, block for block, and its
/// counts must follow.
void expect_lru(const mm::PageCache& cache, const std::deque<CachedBlock>& model, int op) {
  std::vector<CachedBlock> got;
  cache.for_each_lru([&](Addr a, unsigned o, bool d) { got.push_back(CachedBlock{a, o, d}); });
  ASSERT_TRUE(std::equal(got.begin(), got.end(), model.begin(), model.end())) << "op " << op;
  ASSERT_EQ(cache.block_count(), model.size()) << "op " << op;
  std::uint64_t bytes = 0;
  for (const CachedBlock& b : model) {
    bytes += mm::BuddyAllocator::order_bytes(b.order);
  }
  ASSERT_EQ(cache.cached_bytes(), bytes) << "op " << op;
}

/// block_containing() at `probes` random heads, interiors and other
/// addresses of the zone must answer as the `model` of cached blocks
/// (head -> order) does.
void expect_index(const mm::PageCache& cache, const std::deque<CachedBlock>& lru, Range zone,
                  Rng& rng, int op) {
  std::map<Addr, unsigned> model;
  for (const CachedBlock& b : lru) {
    model.emplace(b.addr, b.order);
  }
  const auto want = [&](Addr a) -> std::optional<std::pair<Addr, unsigned>> {
    auto it = model.upper_bound(a);
    if (it == model.begin()) {
      return std::nullopt;
    }
    --it;
    if (a < it->first + mm::BuddyAllocator::order_bytes(it->second)) {
      return *it;
    }
    return std::nullopt;
  };
  for (int k = 0; k < 8; ++k) {
    Addr a = zone.begin + align_down(rng.uniform(zone.size()), kSmallPageSize);
    if (!lru.empty() && k < 6) {
      const CachedBlock& b = lru[rng.uniform(lru.size())];
      // A head, or an interior frame of the block.
      a = b.addr + (k % 2 == 0 ? 0 : rng.uniform(mm::BuddyAllocator::order_bytes(b.order)));
    }
    ASSERT_EQ(cache.block_containing(a), want(a)) << "op " << op << " addr " << a;
  }
  ASSERT_EQ(cache.block_containing(zone.end), std::nullopt) << "op " << op;
}

/// Each zone's pool walk must be its model stack read top down, and its
/// count the model count (which a double free puts above the stack size).
void expect_pools(const mm::HugetlbPool& pool, const std::vector<std::vector<Addr>>& stacks,
                  const std::vector<std::uint64_t>& counts, int op) {
  for (ZoneId z = 0; z < stacks.size(); ++z) {
    std::vector<Addr> got;
    pool.for_each_pool_page(z, [&](Addr a) { got.push_back(a); });
    ASSERT_TRUE(std::equal(got.begin(), got.end(), stacks[z].rbegin(), stacks[z].rend()))
        << "op " << op << " zone " << z;
    ASSERT_EQ(pool.free_pages(z), counts[z]) << "op " << op << " zone " << z;
    // The pooled bits are exactly the stack's pages.
    ASSERT_EQ(pool.pooled_count(z), stacks[z].size()) << "op " << op << " zone " << z;
    for (const Addr a : stacks[z]) {
      ASSERT_TRUE(pool.pooled(z, a)) << "op " << op << " zone " << z << " page " << a;
    }
  }
}

TEST(CacheAndPoolDifferential, CacheFifoAndPoolStacksMatchModels) {
  hw::PhysicalMemory phys(256 * MiB, 2);
  hw::BandwidthModel bw(2, 5.6);
  mm::MemorySystem ms(phys, bw, Rng(11), mm::CostModel{});
  constexpr std::uint64_t kPoolPerZone = 16 * MiB;
  mm::HugetlbPool pool(ms, kPoolPerZone);
  mm::PageCache& cache = ms.cache(0);
  mm::BuddyAllocator& buddy = ms.buddy(0);

  std::deque<CachedBlock> lru;
  std::vector<std::vector<Addr>> stacks(2);
  std::vector<std::uint64_t> counts(2, kPoolPerZone / kLargePageSize);
  // The boot reservation pushed each zone's pages in allocation order.
  for (ZoneId z = 0; z < 2; ++z) {
    pool.for_each_pool_page(z, [&](Addr a) { stacks[z].insert(stacks[z].begin(), a); });
    ASSERT_EQ(stacks[z].size(), counts[z]);
  }
  std::vector<std::pair<Addr, ZoneId>> taken; // pool pages handed out

  Rng rng(0xf1f0ULL);
  Rng probe_rng(0x1de7ULL);
  // How often each kind of step did real work, so the walk provably
  // covers every path.
  std::uint64_t evicted = 0;
  std::uint64_t moved = 0;
  std::uint64_t served = 0;
  std::uint64_t double_frees = 0;
  for (int op = 0; op < 4'000; ++op) {
    const std::uint64_t roll = rng.uniform(100);
    if (roll < 25) {
      // grow: the new blocks come from the buddy, so the model learns
      // their addresses from the walk's tail, after the old prefix held.
      const auto order = static_cast<unsigned>(rng.uniform(4));
      const bool dirty = rng.uniform(4) == 0;
      const std::uint64_t grown = cache.grow(rng.uniform(32) * 4 * KiB << order, order, dirty);
      const std::size_t added = grown / mm::BuddyAllocator::order_bytes(order);
      std::vector<CachedBlock> got;
      cache.for_each_lru([&](Addr a, unsigned o, bool d) { got.push_back(CachedBlock{a, o, d}); });
      ASSERT_EQ(got.size(), lru.size() + added) << "op " << op;
      ASSERT_TRUE(std::equal(lru.begin(), lru.end(), got.begin())) << "op " << op;
      for (std::size_t i = lru.size(); i < got.size(); ++i) {
        ASSERT_EQ(got[i].order, order) << "op " << op;
        ASSERT_TRUE(!dirty || got[i].dirty) << "op " << op;
        lru.push_back(got[i]);
      }
    } else if (roll < 40) {
      const auto order = static_cast<unsigned>(rng.uniform(5));
      if (const auto a = buddy.alloc(order); a.has_value()) {
        const bool dirty = rng.uniform(2) == 0;
        cache.adopt(a->addr, order, dirty);
        lru.push_back(CachedBlock{a->addr, order, dirty});
      }
    } else if (roll < 52) {
      const std::uint64_t want = rng.uniform(64) * 4 * KiB;
      const mm::PageCache::ShrinkResult r = cache.shrink(want);
      mm::PageCache::ShrinkResult expect;
      while (expect.bytes_freed < want && !lru.empty()) {
        expect.bytes_freed += mm::BuddyAllocator::order_bytes(lru.front().order);
        ++(lru.front().dirty ? expect.writeback_blocks : expect.clean_blocks);
        lru.pop_front();
        ++evicted;
      }
      ASSERT_EQ(r.bytes_freed, expect.bytes_freed) << "op " << op;
      ASSERT_EQ(r.writeback_blocks, expect.writeback_blocks) << "op " << op;
      ASSERT_EQ(r.clean_blocks, expect.clean_blocks) << "op " << op;
    } else if (roll < 54) {
      cache.clear();
      lru.clear();
    } else if (roll < 66 && !lru.empty()) {
      // A batch of moves onto fresh buddy blocks, in random order; the
      // vacated frames go back to the buddy, as compaction's would.
      std::vector<std::size_t> picks;
      for (std::uint64_t k = 1 + rng.uniform(6); k > 0; --k) {
        const std::size_t i = rng.uniform(lru.size());
        if (std::find(picks.begin(), picks.end(), i) == picks.end()) {
          picks.push_back(i);
        }
      }
      std::vector<mm::PageCache::Move> moves;
      std::vector<std::pair<std::size_t, Addr>> applied;
      for (const std::size_t i : picks) {
        if (const auto t = buddy.alloc(lru[i].order); t.has_value()) {
          moves.push_back(mm::PageCache::Move{lru[i].addr, t->addr});
          applied.emplace_back(i, t->addr);
        }
      }
      cache.relocate(moves);
      for (const auto& [i, to] : applied) {
        buddy.free(lru[i].addr, lru[i].order);
        lru[i].addr = to;
        ++moved;
      }
    } else if (roll < 83) {
      const auto zone = static_cast<ZoneId>(rng.uniform(2));
      const auto page = pool.alloc_page(zone);
      std::optional<std::pair<Addr, ZoneId>> expect;
      for (ZoneId probe = 0; probe < 2 && !expect.has_value(); ++probe) {
        const ZoneId z = (zone + probe) % 2;
        if (!stacks[z].empty()) {
          expect = std::make_pair(stacks[z].back(), z);
          stacks[z].pop_back();
          --counts[z];
        }
      }
      ASSERT_EQ(page, expect) << "op " << op;
      if (page.has_value()) {
        taken.push_back(*page);
        ++served;
      }
    } else if (roll < 98 && !taken.empty()) {
      const std::size_t k = rng.uniform(taken.size());
      const auto [addr, z] = taken[k];
      taken[k] = taken.back();
      taken.pop_back();
      pool.free_page(z, addr);
      stacks[z].push_back(addr);
      ++counts[z];
    } else if (!stacks[1].empty()) {
      // A double free of a pooled page: re-accounted, never pushed twice.
      pool.free_page(1, stacks[1].back());
      ++counts[1];
      ++double_frees;
    }
    expect_lru(cache, lru, op);
    expect_index(cache, lru, buddy.range(), probe_rng, op);
    expect_pools(pool, stacks, counts, op);
  }
  EXPECT_GT(evicted, 1'000u);
  EXPECT_GT(moved, 1'000u);
  EXPECT_GT(served, 100u);
  EXPECT_GT(double_frees, 10u);
}

} // namespace
} // namespace hpmmap
