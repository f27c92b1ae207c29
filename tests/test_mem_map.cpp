// Unit + property tests: the hw::MemMap frame-metadata array and the
// owners that mark blocks in it. The differential tests at the bottom
// drive the bitmap-freelist BuddyAllocator against an std::set-based
// reference model (the pre-rework implementation's data structure), and
// the page-cache LRU and hugetlb pool stacks against std::deque and
// std::vector models, and the sectioned map itself against a dense byte
// array, through random op sequences — results, accounting and list
// order must agree at every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/bandwidth.hpp"
#include "hw/mem_map.hpp"
#include "hw/phys_mem.hpp"
#include "linux_mm/buddy_allocator.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/memory_system.hpp"
#include "linux_mm/page_cache.hpp"

namespace hpmmap {
namespace {

using hw::FrameState;
using hw::MemMap;

constexpr Addr kBase = 16 * MiB;

MemMap make(std::uint64_t bytes = 64 * MiB) {
  return MemMap(Range{kBase, kBase + bytes});
}

TEST(MemMap, IndexAddrRoundTrip) {
  auto m = make();
  EXPECT_EQ(m.frame_count(), 64 * MiB / (4 * KiB));
  EXPECT_EQ(m.index_of(kBase), 0u);
  EXPECT_EQ(m.addr_of(0), kBase);
  const Addr a = kBase + 13 * 4 * KiB;
  EXPECT_EQ(m.addr_of(m.index_of(a)), a);
  // Interior addresses land on their frame's index.
  EXPECT_EQ(m.index_of(a + 100), m.index_of(a));
  EXPECT_FALSE(m.contains(kBase - 1));
  EXPECT_FALSE(m.contains(kBase + 64 * MiB));
}

TEST(MemMap, HeadMarkingPacksStateAndOrder) {
  auto m = make();
  EXPECT_EQ(m.state(5), FrameState::kUntracked);
  m.set_head(5, FrameState::kCacheDirty, 9);
  EXPECT_EQ(m.state(5), FrameState::kCacheDirty);
  EXPECT_EQ(m.order(5), 9u);
  // Neighbouring frames are untouched (head-only marking).
  EXPECT_EQ(m.state(4), FrameState::kUntracked);
  EXPECT_EQ(m.state(6), FrameState::kUntracked);
  m.set_head(5, FrameState::kBuddyFree, 18);
  EXPECT_EQ(m.state(5), FrameState::kBuddyFree);
  EXPECT_EQ(m.order(5), 18u);
  m.clear_head(5);
  EXPECT_EQ(m.state(5), FrameState::kUntracked);
  EXPECT_EQ(m.order(5), 0u);
}

TEST(MemMap, BlockContainingProbesEveryOrder) {
  auto m = make();
  // A 2M cache block at kBase + 2M: every interior address resolves to
  // the block head, at any probing state mask that includes it.
  const Addr block = kBase + 2 * MiB;
  m.set_head(m.index_of(block), FrameState::kCacheClean, 9);
  for (const Addr probe : {block, block + 4 * KiB, block + 2 * MiB - 1}) {
    const auto hit = m.block_containing(probe, hw::kCacheStates, 10);
    ASSERT_TRUE(hit.has_value()) << "probe " << probe;
    EXPECT_EQ(hit->first, block);
    EXPECT_EQ(hit->second, 9u);
  }
  // A mask that excludes the state misses.
  EXPECT_FALSE(m.block_containing(block, hw::state_mask(FrameState::kBuddyFree), 10).has_value());
  // max_order below the block's order misses (probe never reaches o=9).
  EXPECT_FALSE(m.block_containing(block + 8 * KiB, hw::kCacheStates, 8).has_value());
  // Outside the range misses without asserting.
  EXPECT_FALSE(m.block_containing(kBase - 4 * KiB, hw::kCacheStates, 10).has_value());
  // An order-0 head elsewhere is found at exactly its own frame.
  m.set_head(3, FrameState::kBuddyFree, 0);
  const auto small = m.block_containing(m.addr_of(3), hw::state_mask(FrameState::kBuddyFree), 10);
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(small->second, 0u);
  EXPECT_FALSE(
      m.block_containing(m.addr_of(4), hw::state_mask(FrameState::kBuddyFree), 10).has_value());
}

TEST(MemMap, BlockContainingRequiresMatchingOrder) {
  auto m = make();
  // A frame marked order 3 must not satisfy an order-0 probe of its own
  // address under a different alignment: the meta order is part of the
  // match, so stale low-order marks cannot shadow a larger block.
  m.set_head(0, FrameState::kBuddyFree, 3);
  const auto hit = m.block_containing(kBase + 4 * KiB, hw::state_mask(FrameState::kBuddyFree), 10);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first, kBase);
  EXPECT_EQ(hit->second, 3u);
}

TEST(MemMap, ForEachHeadAscendingAndComplete) {
  auto m = make();
  // Heads placed sparsely, including runs of >8 untracked frames (the
  // word-skip path) and adjacent frames.
  const std::vector<std::uint32_t> heads = {0, 1, 9, 64, 65, 1000, 16383};
  for (const std::uint32_t idx : heads) {
    m.set_head(idx, FrameState::kHugetlbPool, 2);
  }
  std::vector<std::uint32_t> seen;
  m.for_each_head([&](Addr a, FrameState st, unsigned order) {
    EXPECT_EQ(st, FrameState::kHugetlbPool);
    EXPECT_EQ(order, 2u);
    seen.push_back(m.index_of(a));
  });
  EXPECT_EQ(seen, heads);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

// ---------------------------------------------------------------------------
// Differential property test: bitmap freelists vs the std::set model.
// ---------------------------------------------------------------------------

/// Reference buddy allocator: the pre-rework ordered-set freelists with
/// the same pop-lowest / eager-coalesce policy. Deliberately naive.
class SetBuddy {
 public:
  SetBuddy(Range range, unsigned max_order) : range_(range), max_order_(max_order) {
    lists_.resize(max_order + 1);
    Addr cursor = range_.begin;
    while (cursor < range_.end) {
      unsigned order = max_order_;
      while (order > 0 &&
             (!is_aligned(cursor - range_.begin, bytes_of(order)) ||
              cursor + bytes_of(order) > range_.end)) {
        --order;
      }
      lists_[order].insert(cursor);
      free_bytes_ += bytes_of(order);
      cursor += bytes_of(order);
    }
  }

  std::optional<Addr> alloc(unsigned order) {
    unsigned found = order;
    while (found <= max_order_ && lists_[found].empty()) {
      ++found;
    }
    if (found > max_order_) {
      return std::nullopt;
    }
    const Addr block = *lists_[found].begin();
    lists_[found].erase(lists_[found].begin());
    for (unsigned o = found; o > order; --o) {
      lists_[o - 1].insert(block + bytes_of(o - 1));
    }
    free_bytes_ -= bytes_of(order);
    return block;
  }

  void free(Addr addr, unsigned order) {
    free_bytes_ += bytes_of(order);
    Addr block = addr;
    unsigned o = order;
    while (o < max_order_) {
      const Addr buddy = range_.begin + ((block - range_.begin) ^ bytes_of(o));
      if (buddy + bytes_of(o) > range_.end || !lists_[o].contains(buddy)) {
        break;
      }
      lists_[o].erase(buddy);
      block = std::min(block, buddy);
      ++o;
    }
    lists_[o].insert(block);
  }

  bool take(Addr addr, unsigned order) {
    if (!lists_[order].contains(addr)) {
      return false;
    }
    lists_[order].erase(addr);
    free_bytes_ -= bytes_of(order);
    return true;
  }

  [[nodiscard]] std::uint64_t free_bytes() const { return free_bytes_; }
  [[nodiscard]] const std::set<Addr>& list(unsigned o) const { return lists_[o]; }

 private:
  [[nodiscard]] static std::uint64_t bytes_of(unsigned o) { return kSmallPageSize << o; }

  Range range_;
  unsigned max_order_;
  std::uint64_t free_bytes_ = 0;
  std::vector<std::set<Addr>> lists_;
};

void expect_equivalent(const mm::BuddyAllocator& b, const SetBuddy& ref) {
  ASSERT_EQ(b.free_bytes(), ref.free_bytes());
  for (unsigned o = 0; o <= b.max_order(); ++o) {
    ASSERT_EQ(b.free_blocks(o), ref.list(o).size()) << "order " << o;
  }
  // Identical enumeration, block for block.
  std::vector<std::pair<Addr, unsigned>> got;
  b.for_each_free_block([&](Addr a, unsigned o) { got.emplace_back(a, o); });
  std::vector<std::pair<Addr, unsigned>> want;
  for (unsigned o = 0; o <= b.max_order(); ++o) {
    for (const Addr a : ref.list(o)) {
      want.emplace_back(a, o);
    }
  }
  ASSERT_EQ(got, want);
  ASSERT_TRUE(b.check_consistency());
}

TEST(MemMapDifferential, BuddyMatchesSetModel) {
  constexpr unsigned kMax = 10;
  const Range range{kBase, kBase + 64 * MiB};
  mm::BuddyAllocator buddy(range, kMax);
  SetBuddy ref(range, kMax);

  Rng rng(0x5eedULL);
  std::vector<std::pair<Addr, unsigned>> held;
  for (int i = 0; i < 30'000; ++i) {
    const std::uint64_t roll = rng.uniform(100);
    if (roll < 55) {
      // Skewed toward small orders, like the real fault mix.
      const unsigned order = static_cast<unsigned>(rng.uniform(kMax + 1)) / 2;
      const auto a = buddy.alloc(order);
      const auto r = ref.alloc(order);
      ASSERT_EQ(a.has_value(), r.has_value());
      if (a.has_value()) {
        ASSERT_EQ(a->addr, *r); // pop-lowest determinism, both models
        held.emplace_back(a->addr, order);
      }
    } else if (roll < 90 && !held.empty()) {
      const std::size_t k = rng.uniform(held.size());
      buddy.free(held[k].first, held[k].second);
      ref.free(held[k].first, held[k].second);
      held[k] = held.back();
      held.pop_back();
    } else {
      // take_free_block on a random existing free block (or a refused
      // miss on an allocated address — both paths must agree).
      const Addr addr = kBase + align_down(rng.uniform(64 * MiB), 4 * KiB);
      const unsigned order = static_cast<unsigned>(rng.uniform(4));
      const Addr base = kBase + align_down(addr - kBase, kSmallPageSize << order);
      const bool took = buddy.take_free_block(base, order);
      ASSERT_EQ(took, ref.take(base, order));
      if (took) {
        held.emplace_back(base, order);
      }
    }
    if (i % 2'000 == 0) {
      expect_equivalent(buddy, ref);
    }
  }
  expect_equivalent(buddy, ref);
  // Drain and confirm full coalescing back to pristine.
  for (const auto& [addr, order] : held) {
    buddy.free(addr, order);
    ref.free(addr, order);
  }
  expect_equivalent(buddy, ref);
  EXPECT_EQ(buddy.free_bytes(), 64 * MiB);
}

// ---------------------------------------------------------------------------
// Differential property test: the page-cache FIFO and the hugetlb pool
// stacks vs std::deque / std::vector models.
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
  }
}

TEST(MemMapDifferential, CacheFifoAndPoolStacksMatchModels) {
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
    expect_pools(pool, stacks, counts, op);
  }
  EXPECT_GT(evicted, 1'000u);
  EXPECT_GT(moved, 1'000u);
  EXPECT_GT(served, 100u);
  EXPECT_GT(double_frees, 10u);
}

// ---------------------------------------------------------------------------
// Differential property test: the sectioned map vs a dense byte array.
// ---------------------------------------------------------------------------

/// The dense model's block_containing(): the pre-section probe loop.
std::optional<std::pair<Addr, unsigned>> dense_block_containing(
    const std::vector<std::uint8_t>& meta, Range range, unsigned min_order, Addr addr,
    std::uint8_t states, unsigned max_order) {
  if (!range.contains(addr)) {
    return std::nullopt;
  }
  const std::uint64_t off = addr - range.begin;
  for (unsigned o = min_order; o <= max_order; ++o) {
    const std::uint64_t base = align_down(off, kSmallPageSize << o);
    const std::uint8_t m = meta[base >> (12 + min_order)];
    if ((states & (1u << (m & 0x7u))) != 0 && (m >> 3) == o) {
      return std::make_pair(range.begin + base, o);
    }
  }
  return std::nullopt;
}

/// Sections whose inner entries (all but the first) hold a nonzero byte.
std::size_t sections_with_inner(const std::vector<std::uint8_t>& meta) {
  std::size_t n = 0;
  for (std::size_t base = 0; base < meta.size(); base += MemMap::kSectionEntries) {
    const auto end = meta.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(meta.size(), base + MemMap::kSectionEntries));
    if (std::any_of(meta.begin() + static_cast<std::ptrdiff_t>(base) + 1, end,
                    [](std::uint8_t b) { return b != 0; })) {
      ++n;
    }
  }
  return n;
}

/// Random set/clear/probe/sweep sequences against the dense model over
/// `frames` entries of `4 KiB << min_order`. Indices cluster near section
/// boundaries and in the last (partial) section; bulk clears cross
/// sections and wipe whole sections, so sections release and then
/// rematerialize. Every read must agree after every op.
void drive_sectioned_map(unsigned min_order, std::uint64_t frames, std::uint64_t seed) {
  const std::uint64_t grain = kSmallPageSize << min_order;
  const Range range{kBase, kBase + frames * grain};
  MemMap m(range, min_order);
  std::vector<std::uint8_t> model(frames, 0);
  const std::uint32_t sections =
      static_cast<std::uint32_t>((frames + MemMap::kSectionEntries - 1) / MemMap::kSectionEntries);
  std::vector<bool> was_materialized(sections, false);
  std::vector<bool> released(sections, false);
  std::size_t rematerialized = 0;
  std::size_t probes_hit = 0;
  std::vector<std::pair<std::uint32_t, unsigned>> placed; // aligned heads set: (index, order - min)

  Rng rng(seed);
  const auto pick_index = [&]() -> std::uint32_t {
    const std::uint64_t roll = rng.uniform(10);
    if (roll < 4) {
      // Within 8 entries of a section boundary, either side.
      const std::uint64_t sec = rng.uniform(sections + 1) * MemMap::kSectionEntries;
      const std::uint64_t idx = sec + rng.uniform(16);
      return static_cast<std::uint32_t>(std::min(frames - 1, idx >= 8 ? idx - 8 : idx));
    }
    if (roll < 6) {
      // The last section, which may be partial.
      const std::uint64_t last = std::uint64_t{sections - 1} * MemMap::kSectionEntries;
      return static_cast<std::uint32_t>(last + rng.uniform(frames - last));
    }
    return static_cast<std::uint32_t>(rng.uniform(frames));
  };

  for (int op = 0; op < 6'000; ++op) {
    const std::uint64_t roll = rng.uniform(100);
    if (roll < 45) {
      std::uint32_t idx = pick_index();
      const auto st = static_cast<FrameState>(rng.uniform(6));
      unsigned order = static_cast<unsigned>(rng.uniform(32));
      if (rng.chance(0.7)) {
        // A naturally aligned block head, as the owners mark them.
        const unsigned k = static_cast<unsigned>(rng.uniform(13));
        order = min_order + k;
        idx &= ~((std::uint32_t{1} << k) - 1);
        placed.emplace_back(idx, k);
      }
      m.set_head(idx, st, order);
      model[idx] = static_cast<std::uint8_t>(static_cast<unsigned>(st) | (order << 3));
    } else if (roll < 70) {
      const std::uint32_t idx = pick_index();
      m.clear_head(idx);
      model[idx] = 0;
    } else if (roll < 80) {
      // A bulk clear: short runs, runs crossing a boundary, whole sections.
      const std::uint32_t first = pick_index();
      const std::uint64_t room = frames - first;
      const std::uint64_t want = rng.chance(0.3) ? MemMap::kSectionEntries * 2
                                                 : rng.uniform(MemMap::kSectionEntries + 64);
      const auto count = static_cast<std::uint32_t>(std::min(room, want));
      m.clear_heads(first, count);
      std::fill_n(model.begin() + first, count, std::uint8_t{0});
    } else if (roll < 97) {
      Addr addr = range.begin + rng.uniform(range.size());
      auto states = static_cast<std::uint8_t>(rng.uniform(64));
      if (!placed.empty() && rng.chance(0.5)) {
        // Inside a block placed earlier (it may have been cleared since).
        const auto [head, k] = placed[rng.uniform(placed.size())];
        const std::uint64_t span = std::min(grain << k, range.end - m.addr_of(head));
        addr = m.addr_of(head) + rng.uniform(span);
        states = 0x3f;
      }
      // Max orders past a section's size probe other sections' heads.
      const unsigned max_order = min_order + static_cast<unsigned>(rng.uniform(13));
      const auto got = m.block_containing(addr, states, max_order);
      ASSERT_EQ(got, dense_block_containing(model, range, min_order, addr, states, max_order))
          << "op " << op << " addr " << addr;
      if (got.has_value()) {
        ++probes_hit;
      }
    } else {
      // The snapshot round trip: densify, then materialize into a fresh map.
      MemMap fresh(range, min_order);
      fresh.set_head(0, FrameState::kBuddyFree, 10);
      fresh.set_head(static_cast<std::uint32_t>(frames - 1), FrameState::kCacheDirty, 0);
      fresh.assign_dense(m.to_dense());
      m = std::move(fresh);
    }

    // Equal reads, everywhere.
    ASSERT_EQ(m.to_dense(), model) << "op " << op;
    for (const std::uint32_t idx : {pick_index(), pick_index()}) {
      ASSERT_EQ(m.state(idx), static_cast<FrameState>(model[idx] & 0x7u)) << "op " << op;
      ASSERT_EQ(m.order(idx), static_cast<unsigned>(model[idx] >> 3)) << "op " << op;
    }
    std::vector<std::uint32_t> heads;
    m.for_each_head([&](Addr a, FrameState st, unsigned o) {
      const std::uint32_t idx = m.index_of(a);
      EXPECT_EQ(model[idx], static_cast<std::uint8_t>(static_cast<unsigned>(st) | (o << 3)));
      heads.push_back(idx);
    });
    std::vector<std::uint32_t> want_heads;
    for (std::uint32_t i = 0; i < frames; ++i) {
      if (model[i] != 0) {
        want_heads.push_back(i);
      }
    }
    ASSERT_EQ(heads, want_heads) << "op " << op;
    // A section holds a buffer exactly while an inner byte is nonzero,
    // and its count is that byte count.
    ASSERT_EQ(m.materialized_sections(), sections_with_inner(model)) << "op " << op;
    std::vector<bool> now(sections, false);
    m.for_each_materialized([&](std::uint32_t sec, unsigned count, unsigned nonzero) {
      EXPECT_EQ(count, nonzero) << "op " << op << " section " << sec;
      now[sec] = true;
    });
    for (std::uint32_t sec = 0; sec < sections; ++sec) {
      if (was_materialized[sec] && !now[sec]) {
        released[sec] = true;
      } else if (!was_materialized[sec] && now[sec] && released[sec]) {
        ++rematerialized;
      }
    }
    was_materialized = now;
  }
  EXPECT_GT(rematerialized, static_cast<std::size_t>(sections) * 3)
      << "sections must release and then rematerialize, repeatedly";
  EXPECT_GT(probes_hit, 50u);
}

TEST(MemMapDifferential, SectionedMatchesDenseModel) {
  // A Linux-style map: three whole sections and a partial fourth.
  drive_sectioned_map(0, 3 * MemMap::kSectionEntries + 300, 0xd15e);
  // A Kitten map (one entry per 2 MiB): one whole section and a partial second.
  drive_sectioned_map(9, MemMap::kSectionEntries + 77, 0x6177);
}

TEST(MemMap, SparesAreReusedNotReallocated) {
  auto m = make(64 * MiB); // 16 sections
  const std::uint64_t empty = m.host_bytes();
  // Materialize every section, then release them all.
  for (std::uint32_t sec = 0; sec < 16; ++sec) {
    m.set_head(sec * MemMap::kSectionEntries + 5, FrameState::kBuddyFree, 0);
  }
  EXPECT_EQ(m.materialized_sections(), 16u);
  EXPECT_GE(m.host_bytes() - empty, 16u * MemMap::kSectionEntries);
  m.clear_heads(0, static_cast<std::uint32_t>(m.frame_count()));
  EXPECT_EQ(m.materialized_sections(), 0u);
  const std::uint64_t full = m.host_bytes(); // every buffer now spare
  // Rematerializing takes spares: the map grows no further.
  for (std::uint32_t sec = 0; sec < 16; ++sec) {
    m.set_head(sec * MemMap::kSectionEntries + 9, FrameState::kCacheClean, 0);
  }
  EXPECT_EQ(m.materialized_sections(), 16u);
  EXPECT_EQ(m.host_bytes(), full);
  // A head at a section's first frame needs no buffer at all.
  auto heads_only = make(64 * MiB);
  for (std::uint32_t sec = 0; sec < 16; ++sec) {
    heads_only.set_head(sec * MemMap::kSectionEntries, FrameState::kBuddyFree, 10);
  }
  EXPECT_EQ(heads_only.materialized_sections(), 0u);
  EXPECT_EQ(heads_only.host_bytes(), empty);
}

} // namespace
} // namespace hpmmap
