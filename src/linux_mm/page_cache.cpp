#include "linux_mm/page_cache.hpp"

#include <algorithm>

namespace hpmmap::mm {

PageCache::PageCache(BuddyAllocator& buddy, double dirty_fraction)
    : buddy_(buddy), index_(buddy.max_order() + 1), state_{.dirty_fraction = dirty_fraction} {}

void PageCache::flip(std::uint32_t head, unsigned order) {
  std::vector<std::uint64_t>& bits = index_[order];
  if (bits.empty()) {
    bits.resize(static_cast<std::size_t>(((buddy_.range().size() >> (12 + order)) + 63) / 64));
  }
  const std::uint64_t i = std::uint64_t{head} >> order;
  bits[i >> 6] ^= std::uint64_t{1} << (i & 63);
}

void PageCache::reindex() {
  for (std::vector<std::uint64_t>& bits : index_) {
    std::fill(bits.begin(), bits.end(), 0);
  }
  for (const Entry& e : lru_) {
    HPMMAP_ASSERT(e.order < index_.size() && e.head % (1u << e.order) == 0 &&
                      addr_of(e.head) + BuddyAllocator::order_bytes(e.order) <=
                          buddy_.range().end,
                  "page-cache LRU entry is not a block of its zone");
    if (!test(e.order, std::uint64_t{e.head} >> e.order)) {
      flip(e.head, e.order);
    }
  }
}

void PageCache::corrupt_flip_index(Addr addr, unsigned order) { flip(head_of(addr), order); }

void PageCache::push_back_block(Addr addr, unsigned order, bool dirty) {
  const std::uint32_t head = head_of(addr);
  HPMMAP_ASSERT(!test(order, std::uint64_t{head} >> order), "block already cached");
  flip(head, order);
  lru_.push_back(Entry{head, static_cast<std::uint8_t>(order), dirty});
  state_.cached_bytes += BuddyAllocator::order_bytes(order);
}

std::pair<std::uint64_t, bool> PageCache::pop_front_block() {
  const Entry e = lru_.front();
  lru_.pop_front();
  flip(e.head, e.order);
  buddy_.free(addr_of(e.head), e.order);
  const std::uint64_t block_bytes = BuddyAllocator::order_bytes(e.order);
  state_.cached_bytes -= block_bytes;
  return {block_bytes, e.dirty};
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
    const auto from = block_containing(mv.from);
    HPMMAP_ASSERT(from.has_value() && from->first == mv.from,
                  "relocate of a block the cache does not own");
    // The target is normally a freshly-allocated (uncached) block, but
    // only another cache block is an outright error: compaction tests
    // relocate onto raw free space without reserving it first.
    const auto to = block_containing(mv.to);
    HPMMAP_ASSERT(!to.has_value() || to->first != mv.to, "relocate target already cached");
    const Moved heads{head_of(mv.from), head_of(mv.to)};
    flip(heads.first, from->second);
    flip(heads.second, from->second);
    moved.push_back(heads);
  }
  // One LRU walk rewrites each moved head in place, keeping its position.
  std::ranges::sort(moved);
  std::size_t left = moved.size();
  for (auto it = lru_.begin(); left > 0 && it != lru_.end(); ++it) {
    const auto hit = std::ranges::lower_bound(moved, it->head, {}, &Moved::first);
    if (hit != moved.end() && hit->first == it->head) {
      it->head = hit->second;
      --left;
    }
  }
  HPMMAP_ASSERT(left == 0, "relocated block missing from the LRU");
}

} // namespace hpmmap::mm
