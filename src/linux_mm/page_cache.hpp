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
// The cache is the only record of its blocks, in two forms. The LRU is a
// FIFO of {head frame, order, dirty} entries (pushed at the back,
// reclaimed from the front). The index is one bitmap per order over the
// zone, the buddy's own layout: bit i of order o means a cached block
// heads at begin + (i << (12 + o)). An order's bitmap is sized on its
// first insert, so a zone that never caches pays nothing for it.
// block_containing() is one bit probe per order, like the buddy's
// free_block_containing(), so grow and shrink stay O(1) per block.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/host_bytes.hpp"
#include "common/types.hpp"
#include "linux_mm/buddy_allocator.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::mm {

class PageCache {
 public:
  /// `dirty_fraction`: probability a cached block needs writeback before
  /// it can be reclaimed (compiler temp output vs read-only source).
  explicit PageCache(BuddyAllocator& buddy, double dirty_fraction = 0.3);

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

  /// The cache block containing `addr`, if any, as (block base, order):
  /// the lowest order whose aligned-down head is indexed.
  [[nodiscard]] std::optional<std::pair<Addr, unsigned>> block_containing(Addr addr) const {
    const Range r = buddy_.range();
    if (!r.contains(addr)) {
      return std::nullopt;
    }
    const std::uint64_t off = addr - r.begin;
    for (unsigned o = 0; o < index_.size(); ++o) {
      const std::uint64_t i = off >> (12 + o);
      if (test(o, i)) {
        return std::make_pair(r.begin + (i << (12 + o)), o);
      }
    }
    return std::nullopt;
  }

  /// Compaction support: each block at `from` now lives at `to`. LRU
  /// position and dirtiness are preserved. One call walks the LRU once,
  /// so a compaction batches all of its moves.
  struct Move {
    Addr from = 0;
    Addr to = 0;
  };
  void relocate(std::span<const Move> moves);

  /// Visit every indexed block as (base, order), ascending order then
  /// address — the invariant auditor's sweep, not the hot path.
  template <typename Fn>
  void for_each_block(Fn&& fn) const {
    for (unsigned o = 0; o < index_.size(); ++o) {
      const std::vector<std::uint64_t>& bits = index_[o];
      for (std::size_t w = 0; w < bits.size(); ++w) {
        for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
          const auto bit = static_cast<unsigned>(std::countr_zero(word));
          fn(buddy_.range().begin + ((static_cast<Addr>(w) * 64 + bit) << (12 + o)), o);
        }
      }
    }
  }

  /// Visit the LRU front (oldest) to back as (base, order, dirty) — the
  /// auditor's walk.
  template <typename Fn>
  void for_each_lru(Fn&& fn) const {
    for (const Entry& e : lru_) {
      fn(addr_of(e.head), unsigned{e.order}, e.dirty);
    }
  }

  [[nodiscard]] std::uint64_t cached_bytes() const noexcept { return state_.cached_bytes; }
  [[nodiscard]] std::size_t block_count() const noexcept { return lru_.size(); }
  /// Heap bytes of the LRU and the index.
  [[nodiscard]] std::uint64_t host_bytes() const noexcept {
    std::uint64_t n = host_bytes_of(lru_) + host_bytes_of(index_);
    for (const std::vector<std::uint64_t>& bits : index_) {
      n += host_bytes_of(bits);
    }
    return n;
  }
  [[nodiscard]] double dirty_fraction() const noexcept { return state_.dirty_fraction; }
  void set_dirty_fraction(double f) noexcept { state_.dirty_fraction = f; }

  /// Error-injection hook for auditor tests ONLY: flip the index bit of
  /// the block (addr, order), leaving the LRU as it is.
  void corrupt_flip_index(Addr addr, unsigned order);

  /// One LRU entry: the block's head frame (zone-relative; a zone has
  /// < 2^32 frames), its order and whether it needs writeback.
  struct Entry {
    std::uint32_t head = 0;
    std::uint8_t order = 0;
    bool dirty = false;
  };
  /// The members a snapshot image holds as they are (snapshot/image.hpp);
  /// the image stores the LRU apart, as an array, and restore rebuilds
  /// the index from it.
  struct State {
    std::uint64_t cached_bytes = 0;
    std::uint64_t free_floor = 0;
    double dirty_fraction = 0.0;
    std::uint64_t grow_count = 0; // deterministic dirty assignment
  };

 private:
  friend struct hpmmap::snapshot::Access;

  [[nodiscard]] Addr addr_of(std::uint32_t head) const noexcept {
    return buddy_.range().begin + static_cast<Addr>(head) * kSmallPageSize;
  }
  [[nodiscard]] std::uint32_t head_of(Addr addr) const noexcept {
    HPMMAP_ASSERT(buddy_.range().contains(addr), "cache block outside the zone");
    return static_cast<std::uint32_t>((addr - buddy_.range().begin) / kSmallPageSize);
  }
  [[nodiscard]] bool test(unsigned order, std::uint64_t i) const noexcept {
    const std::vector<std::uint64_t>& bits = index_[order];
    return (i >> 6) < bits.size() && ((bits[i >> 6] >> (i & 63)) & 1u) != 0;
  }
  /// Flip the index bit of the block at `head` of `order`, sizing the
  /// order's bitmap on its first use.
  void flip(std::uint32_t head, unsigned order);
  /// Rebuild the index from the LRU (snapshot restore).
  void reindex();

  void push_back_block(Addr addr, unsigned order, bool dirty);
  /// Pop the oldest block off the LRU and free it to the buddy; returns
  /// its bytes and whether it was dirty.
  std::pair<std::uint64_t, bool> pop_front_block();

  BuddyAllocator& buddy_;
  std::deque<Entry> lru_; // oldest (reclaimed first) at the front
  std::vector<std::vector<std::uint64_t>> index_; // [order], bit per block
  State state_;
};

} // namespace hpmmap::mm
