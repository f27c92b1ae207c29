#include "linux_mm/page_cache.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"

namespace hpmmap::mm {

using hw::FrameState;
using hw::MemMap;

PageCache::PageCache(BuddyAllocator& buddy, MemMap& map, double dirty_fraction)
    : buddy_(buddy), map_(map), state_{.dirty_fraction = dirty_fraction} {}

void PageCache::push_back_block(Addr addr, unsigned order, bool dirty) {
  const std::uint32_t idx = map_.index_of(addr);
  HPMMAP_ASSERT(map_.state(idx) == FrameState::kUntracked, "block already cached");
  map_.set_head(idx, dirty ? FrameState::kCacheDirty : FrameState::kCacheClean, order);
  lru_.push_back(idx);
  state_.cached_bytes += BuddyAllocator::order_bytes(order);
}

std::pair<std::uint64_t, bool> PageCache::pop_front_block() {
  const std::uint32_t idx = lru_.front();
  lru_.pop_front();
  const unsigned order = map_.order(idx);
  const bool dirty = map_.state(idx) == FrameState::kCacheDirty;
  map_.clear_head(idx);
  buddy_.free(map_.addr_of(idx), order);
  const std::uint64_t block_bytes = BuddyAllocator::order_bytes(order);
  state_.cached_bytes -= block_bytes;
  return {block_bytes, dirty};
}

std::uint64_t PageCache::grow(std::uint64_t bytes, unsigned order, bool dirty) {
  std::uint64_t grown = 0;
  const std::uint64_t block_bytes = BuddyAllocator::order_bytes(order);
  while (grown < bytes) {
    if (buddy_.free_bytes() < state_.free_floor + block_bytes) {
      break;
    }
    auto alloc = buddy_.alloc(order);
    if (!alloc.has_value()) {
      break;
    }
    // When the caller doesn't force dirtiness, mark blocks dirty at the
    // configured rate using a deterministic rotation (no RNG needed for
    // an aggregate property).
    const bool is_dirty =
        dirty || (state_.dirty_fraction > 0.0 &&
                  static_cast<double>(state_.grow_count % 100) < state_.dirty_fraction * 100.0);
    ++state_.grow_count;
    push_back_block(alloc->addr, order, is_dirty);
    grown += block_bytes;
  }
  return grown;
}

void PageCache::adopt(Addr addr, unsigned order, bool dirty) {
  push_back_block(addr, order, dirty);
}

PageCache::ShrinkResult PageCache::shrink(std::uint64_t bytes) {
  ShrinkResult result;
  while (result.bytes_freed < bytes && !lru_.empty()) {
    const auto [block_bytes, dirty] = pop_front_block();
    result.bytes_freed += block_bytes;
    if (dirty) {
      ++result.writeback_blocks;
    } else {
      ++result.clean_blocks;
    }
  }
  return result;
}

void PageCache::clear() {
  while (!lru_.empty()) {
    (void)pop_front_block();
  }
  HPMMAP_ASSERT(state_.cached_bytes == 0, "cache accounting drift");
}

void PageCache::relocate(std::span<const Move> moves) {
  using Moved = std::pair<std::uint32_t, std::uint32_t>; // (old head, new head)
  std::vector<Moved> moved;
  moved.reserve(moves.size());
  for (const Move& mv : moves) {
    const std::uint32_t io = map_.index_of(mv.from);
    const FrameState st = map_.state(io);
    HPMMAP_ASSERT(st == FrameState::kCacheClean || st == FrameState::kCacheDirty,
                  "relocate of a block the cache does not own");
    const std::uint32_t in = map_.index_of(mv.to);
    // The target is normally a freshly-allocated (untracked) block, but
    // only another cache block is an outright error: compaction tests
    // relocate onto raw free space without reserving it first.
    HPMMAP_ASSERT((hw::state_mask(map_.state(in)) & hw::kCacheStates) == 0,
                  "relocate target already cached");
    map_.set_head(in, st, map_.order(io));
    map_.clear_head(io);
    moved.emplace_back(io, in);
  }
  // One LRU walk rewrites each moved head in place, keeping its position.
  std::ranges::sort(moved);
  std::size_t left = moved.size();
  for (auto it = lru_.begin(); left > 0 && it != lru_.end(); ++it) {
    const auto hit = std::ranges::lower_bound(moved, *it, {}, &Moved::first);
    if (hit != moved.end() && hit->first == *it) {
      *it = hit->second;
      --left;
    }
  }
  HPMMAP_ASSERT(left == 0, "relocated block missing from the LRU");
}

} // namespace hpmmap::mm
