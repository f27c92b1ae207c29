// Page cache model.
//
// Linux spends nearly all free memory on the page cache; a competing
// kernel build fills it with source files and object churn. Reclaim then
// has to shrink the cache page by page — cheap while entries are clean,
// expensive (writeback) once the clean tail is gone. This is the
// mechanism behind the Figure 3/5 "small faults cost 475k cycles under
// load" behaviour.
//
// Cache blocks are *movable* in the kernel's sense: compaction may
// relocate them to assemble contiguous 2M regions, so the cache supports
// address lookup and relocation.
//
// There is no per-block heap state: the LRU is a FIFO of head-frame
// indices (pushed at the back, reclaimed from the front), dirtiness and
// order live in the per-frame meta byte of the zone's hw::MemMap
// (kCacheClean/kCacheDirty heads), and block_containing() is an
// O(orders) align-down probe of that meta instead of an ordered-map
// search — grow and shrink stay O(1) per block.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <utility>

#include "common/host_bytes.hpp"
#include "common/types.hpp"
#include "hw/mem_map.hpp"
#include "linux_mm/buddy_allocator.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::mm {

class PageCache {
 public:
  /// `map`: the zone's mem_map over the buddy's range, where the cache
  /// marks its block heads. `dirty_fraction`: probability a cached block
  /// needs writeback before it can be reclaimed (compiler temp output vs
  /// read-only source).
  PageCache(BuddyAllocator& buddy, hw::MemMap& map, double dirty_fraction = 0.3);

  /// Read `bytes` of file data into the cache: allocates order-`order`
  /// blocks from the buddy until satisfied or free memory reaches the
  /// floor (page-cache fills stop at the low watermark and let kswapd
  /// take over; they never drain the atomic reserves). Returns bytes
  /// actually cached.
  std::uint64_t grow(std::uint64_t bytes, unsigned order, bool dirty);

  /// Free-memory floor below which grow() refuses to allocate.
  void set_free_floor(std::uint64_t bytes) noexcept { state_.free_floor = bytes; }
  [[nodiscard]] std::uint64_t free_floor() const noexcept { return state_.free_floor; }

  /// Adopt an already-allocated buddy block into the cache (a process
  /// exits but its file data stays cached). The block must have come
  /// from this cache's buddy and must not be freed by the caller. A
  /// block that is still free in the buddy is not caught here: the
  /// auditor's frame sweep reports it as `frame.double_owner`.
  void adopt(Addr addr, unsigned order, bool dirty);

  /// Drop cached blocks until `bytes` have been freed back to the buddy
  /// or the cache is empty (LRU order).
  struct ShrinkResult {
    std::uint64_t bytes_freed = 0;
    std::uint64_t writeback_blocks = 0;
    std::uint64_t clean_blocks = 0;
  };
  ShrinkResult shrink(std::uint64_t bytes);

  /// Drop everything (workload exit).
  void clear();

  /// The cache block containing `addr`, if any, as (block base, order).
  [[nodiscard]] std::optional<std::pair<Addr, unsigned>> block_containing(Addr addr) const {
    return map_.block_containing(addr, hw::kCacheStates, buddy_.max_order());
  }

  /// Compaction support: each block at `from` now lives at `to`. LRU
  /// position and dirtiness are preserved. One call walks the LRU once,
  /// so a compaction batches all of its moves.
  struct Move {
    Addr from = 0;
    Addr to = 0;
  };
  void relocate(std::span<const Move> moves);

  /// Visit every cached block as (base, order, dirty) in ascending
  /// address order (deterministic; the invariant auditor's sweep).
  /// O(frames) meta scan — audits, not the hot path.
  template <typename Fn>
  void for_each_block(Fn&& fn) const {
    map_.for_each_head([&](Addr a, hw::FrameState st, unsigned o) {
      if (st == hw::FrameState::kCacheClean || st == hw::FrameState::kCacheDirty) {
        fn(a, o, st == hw::FrameState::kCacheDirty);
      }
    });
  }

  /// Visit the LRU front (oldest) to back as (base, order, dirty) — the
  /// auditor's walk.
  template <typename Fn>
  void for_each_lru(Fn&& fn) const {
    for (const std::uint32_t idx : lru_) {
      fn(map_.addr_of(idx), map_.order(idx), map_.state(idx) == hw::FrameState::kCacheDirty);
    }
  }

  [[nodiscard]] std::uint64_t cached_bytes() const noexcept { return state_.cached_bytes; }
  [[nodiscard]] std::size_t block_count() const noexcept { return lru_.size(); }
  /// Heap bytes of the LRU.
  [[nodiscard]] std::uint64_t host_bytes() const noexcept { return host_bytes_of(lru_); }
  [[nodiscard]] double dirty_fraction() const noexcept { return state_.dirty_fraction; }
  void set_dirty_fraction(double f) noexcept { state_.dirty_fraction = f; }

  /// The members a snapshot image holds as they are (snapshot/image.hpp);
  /// the image stores the LRU apart, as an array.
  struct State {
    std::uint64_t cached_bytes = 0;
    std::uint64_t free_floor = 0;
    double dirty_fraction = 0.0;
    std::uint64_t grow_count = 0; // deterministic dirty assignment
  };

 private:
  friend struct hpmmap::snapshot::Access;

  void push_back_block(Addr addr, unsigned order, bool dirty);
  /// Pop the oldest block off the LRU and free it to the buddy; returns
  /// its bytes and whether it was dirty.
  std::pair<std::uint64_t, bool> pop_front_block();

  BuddyAllocator& buddy_;
  hw::MemMap& map_;
  std::deque<std::uint32_t> lru_; // head-frame indices, oldest (reclaimed first) at the front
  State state_;
};

} // namespace hpmmap::mm
