// Unit + property tests: the hw::MemMap frame-metadata array and the
// intrusive structures threaded through it. The differential test at the
// bottom drives the bitmap-freelist BuddyAllocator against an
// std::set-based reference model (the pre-rework implementation's data
// structure) through random op sequences — results, accounting and
// per-order populations must agree at every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/mem_map.hpp"
#include "linux_mm/buddy_allocator.hpp"

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

TEST(MemMap, LinkInsertUpdateErase) {
  auto m = make();
  EXPECT_FALSE(m.has_link(7));
  m.set_link(7, MemMap::Link{11, MemMap::kNil});
  ASSERT_TRUE(m.has_link(7));
  EXPECT_EQ(m.link(7).next, 11u);
  EXPECT_EQ(m.link(7).prev, MemMap::kNil);
  EXPECT_EQ(m.link_count(), 1u);
  // set_link on an existing key is an update, not a second entry.
  m.set_link(7, MemMap::Link{12, 3});
  EXPECT_EQ(m.link_count(), 1u);
  EXPECT_EQ(m.link(7).next, 12u);
  m.set_next(7, 99);
  m.set_prev(7, 98);
  EXPECT_EQ(m.link(7).next, 99u);
  EXPECT_EQ(m.link(7).prev, 98u);
  m.erase_link(7);
  EXPECT_FALSE(m.has_link(7));
  EXPECT_EQ(m.link_count(), 0u);
}

TEST(MemMap, LinkTableSurvivesCollisionsAndRehash) {
  auto m = make(512 * MiB);
  // Differential check against a reference map through enough inserts to
  // force several rehashes, interleaved with backward-shift deletions.
  std::unordered_map<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>> ref;
  Rng rng(0xfeedULL);
  const std::uint32_t frames = static_cast<std::uint32_t>(m.frame_count());
  for (int i = 0; i < 20'000; ++i) {
    const std::uint32_t key = static_cast<std::uint32_t>(rng.uniform(frames));
    if (rng.uniform(100) < 60 || ref.empty()) {
      const auto next = static_cast<std::uint32_t>(rng.next_u64());
      const auto prev = static_cast<std::uint32_t>(rng.next_u64());
      m.set_link(key, MemMap::Link{next, prev});
      ref[key] = {next, prev};
    } else if (ref.contains(key)) {
      m.erase_link(key);
      ref.erase(key);
    } else {
      EXPECT_FALSE(m.has_link(key));
    }
  }
  EXPECT_EQ(m.link_count(), ref.size());
  for (const auto& [key, l] : ref) {
    ASSERT_TRUE(m.has_link(key)) << key;
    EXPECT_EQ(m.link(key).next, l.first);
    EXPECT_EQ(m.link(key).prev, l.second);
  }
}

TEST(MemMap, AlignedKeysMatchOrderedModelThroughRehashes) {
  // The owners key the link table by block heads, which are aligned to
  // their order: keys with up to nine trailing zero bits must still probe
  // and backward-shift correctly. Grows 64 -> 4096 slots while erasing,
  // and compares the whole table against the model after every op.
  auto m = make(512 * MiB);
  std::map<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>> ref;
  Rng rng(0xa11cedULL);
  const std::uint64_t frames = m.frame_count();
  std::size_t peak = 0;
  for (int i = 0; i < 8'000; ++i) {
    const unsigned order = static_cast<unsigned>(rng.uniform(10));
    const auto key = static_cast<std::uint32_t>(rng.uniform(frames >> order) << order);
    if (rng.uniform(100) < 65 || ref.empty()) {
      const auto next = static_cast<std::uint32_t>(rng.next_u64());
      const auto prev = static_cast<std::uint32_t>(rng.next_u64());
      m.set_link(key, MemMap::Link{next, prev});
      ref[key] = {next, prev};
    } else {
      // Erase the model's nearest key at or above `key` (wrapping).
      auto it = ref.lower_bound(key);
      if (it == ref.end()) {
        it = ref.begin();
      }
      m.erase_link(it->first);
      EXPECT_FALSE(m.has_link(it->first));
      ref.erase(it);
    }
    ASSERT_EQ(m.link_count(), ref.size()) << "op " << i;
    peak = std::max(peak, ref.size());
    for (const auto& [k, l] : ref) {
      ASSERT_TRUE(m.has_link(k)) << "op " << i << " key " << k;
      ASSERT_EQ(m.link(k).next, l.first) << "op " << i << " key " << k;
      ASSERT_EQ(m.link(k).prev, l.second) << "op " << i << " key " << k;
    }
  }
  EXPECT_GE(peak, 1'434u); // past the 2048 -> 4096 rehash threshold
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

} // namespace
} // namespace hpmmap
