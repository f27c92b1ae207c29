// Binary buddy allocator over a contiguous physical range.
//
// This is the zone allocator both stacks stand on: Linux runs one per
// NUMA zone over its online memory, and the same implementation doubles
// as the "Kitten buddy allocator" HPMMAP imposes over offlined ranges
// (§III-A says HPMMAP borrows Kitten's buddy allocator) — the policy
// differences (watermarks, reclaim) live in the callers, not here.
//
// Order 0 is one 4 KiB frame. An instance's blocks reach 4 KiB <<
// max_order: Linux zones use kLinuxMaxOrder = 10 (4 MiB), and the Kitten
// instance a larger maximum so whole 128 MiB+ offlined blocks stay
// coalesced. An instance may also have a
// floor, `min_order`: it hands out no block below it and keeps no
// freelist bitmaps below it. Orders stay in 4 KiB units either way. The
// Kitten instance's floor is order 9 (2 MiB), the smallest page HPMMAP
// maps; Linux zones have none.
//
// The freelists are per-order bitmaps (bit i = block i of that order is
// free) with a one-level summary (bit j = word j is non-zero), not node
// containers: alloc/free/coalesce are O(1) bit flips per level with zero
// heap traffic, find-first-set pops are address-ordered by construction
// (the determinism contract: the allocator always returns the
// lowest-addressed free block of an order), and the buddy-of test that
// drives coalescing is a single bit probe instead of a set lookup. The
// bitmaps are the only record of a free block: free_block_containing()
// resolves any address by one bit probe per order. The owners of
// allocated blocks (page cache, hugetlb pool, pcp lists) keep their own
// records of them.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/host_bytes.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::mm {

struct BuddyStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t split_steps = 0;
  std::uint64_t merge_steps = 0;
  std::uint64_t failed_allocs = 0;
};

class BuddyAllocator {
 public:
  /// Result of a successful allocation; `split_steps` feeds the cost
  /// model (each step is one level of block splitting).
  struct Allocation {
    Addr addr = 0;
    unsigned split_steps = 0;
  };

  /// `max_order`: largest block this instance manages, as a page order;
  /// `min_order`: smallest. The range must be a whole number of
  /// min-order blocks.
  BuddyAllocator(Range phys_range, unsigned max_order, unsigned min_order = 0);

  BuddyAllocator(const BuddyAllocator&) = delete;
  BuddyAllocator& operator=(const BuddyAllocator&) = delete;
  BuddyAllocator(BuddyAllocator&&) = default;
  BuddyAllocator& operator=(BuddyAllocator&&) = default;

  /// Allocate a block of 4KiB << order bytes. Returns nullopt when no
  /// free block of at least that order exists (caller decides whether to
  /// reclaim/compact and retry).
  [[nodiscard]] std::optional<Allocation> alloc(unsigned order);

  /// Consecutive order-0 frames cut from one free block: frame j is
  /// `base + j * 4 KiB`, j < `frames`.
  struct FrameRun {
    Addr base = 0;
    unsigned order = 0; // of the block they were cut from
    std::uint64_t frames = 0;
    /// The split steps alloc(0) would have reported for frame j: the
    /// first frame splits the block `order` times, and frame j > 0 pops
    /// the order-ctz(j) block those splits left at j.
    [[nodiscard]] unsigned split_steps(std::uint64_t j) const noexcept {
      return j == 0 ? order : static_cast<unsigned>(std::countr_zero(j));
    }
  };

  /// Up to `max_frames` order-0 frames from the block alloc(0) would
  /// split next, popped once: the frames, their split steps, the
  /// bitmaps, free_bytes(), stats() and every list's scan hint end up
  /// exactly as after `frames` calls to alloc(0).
  /// Returns no frames (and, unlike alloc(), records no failure) when
  /// nothing is free. Emits no trace events: callers with the buddy
  /// category on use alloc(0), which reports each split. Order-0
  /// instances only (min_order() == 0).
  [[nodiscard]] FrameRun alloc_frames(std::uint64_t max_frames);

  /// Free a previously allocated block; returns coalesce step count.
  unsigned free(Addr addr, unsigned order);

  /// The free block containing `addr`, if any, as (base, order).
  [[nodiscard]] std::optional<std::pair<Addr, unsigned>> free_block_containing(Addr addr) const;

  /// Remove one specific free block (compaction claiming the free holes
  /// inside its target window). Returns false if not free at that order.
  [[nodiscard]] bool take_free_block(Addr addr, unsigned order);

  /// True if the exact block (addr, order) is on the freelist — a single
  /// bit probe.
  [[nodiscard]] bool is_free_block(Addr addr, unsigned order) const;

  [[nodiscard]] std::uint64_t free_bytes() const noexcept { return free_bytes_; }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return range_.size(); }
  [[nodiscard]] std::uint64_t free_blocks(unsigned order) const;

  /// Fragmentation in [0, 1]: 0 when all free memory sits in max-order
  /// blocks, approaching 1 when it is shattered into order-0 frames.
  /// (1 - weighted mean free order / max order.)
  [[nodiscard]] double fragmentation() const;

  /// True if a block of `order` could be satisfied right now.
  [[nodiscard]] bool can_alloc(unsigned order) const;

  [[nodiscard]] const BuddyStats& stats() const noexcept { return stats_; }
  [[nodiscard]] unsigned max_order() const noexcept { return max_order_; }
  [[nodiscard]] unsigned min_order() const noexcept { return min_order_; }
  [[nodiscard]] Range range() const noexcept { return range_; }

  /// Heap bytes of the freelist bitmaps and their summaries.
  [[nodiscard]] std::uint64_t host_bytes() const noexcept {
    std::uint64_t n = host_bytes_of(lists_);
    for (const OrderList& list : lists_) {
      n += host_bytes_of(list.bits) + host_bytes_of(list.summary);
    }
    return n;
  }

  [[nodiscard]] static constexpr std::uint64_t order_bytes(unsigned order) noexcept {
    return kSmallPageSize << order;
  }
  [[nodiscard]] static unsigned order_for_bytes(std::uint64_t size) noexcept;

  /// Exhaustive invariant check (free blocks disjoint, aligned, inside
  /// the range; accounting consistent; bitmap and summary coherent).
  /// For tests; O(free blocks + bitmap words).
  [[nodiscard]] bool check_consistency() const;

  /// Visit every free block as (base, order), ascending order then
  /// address — the enumeration the invariant auditor sweeps.
  template <typename Fn>
  void for_each_free_block(Fn&& fn) const {
    for (unsigned o = 0; o <= max_order_; ++o) {
      const OrderList& list = lists_[o];
      for (std::size_t w = 0; w < list.bits.size(); ++w) {
        std::uint64_t word = list.bits[w];
        while (word != 0) {
          const unsigned bit = static_cast<unsigned>(std::countr_zero(word));
          word &= word - 1;
          fn(range_.begin + ((static_cast<Addr>(w) * 64 + bit) << (12 + o)), o);
        }
      }
      for (const auto& [addr, corder] : corrupt_blocks_) {
        if (corder == o) {
          fn(addr, o);
        }
      }
    }
  }

  /// Error-injection hook for auditor tests ONLY: insert a raw free-list
  /// entry (accounted, but without coalescing or overlap checks), so a
  /// test can seed the corruptions — split buddy pairs, duplicates —
  /// that the public API's eager coalescing makes unreachable.
  void corrupt_insert_free_block(Addr addr, unsigned order);

  /// Per-order free bitmap: bit i = block [begin + i*order_bytes(o),
  /// +order_bytes(o)) is free; empty below min_order. `summary` has one
  /// bit per bits-word; `scan_hint` bounds the summary scan from below
  /// (monotone under pops, reset by inserts), making repeated pops
  /// amortized O(1). A snapshot image holds the lists as they are.
  struct OrderList {
    std::vector<std::uint64_t> bits;
    std::vector<std::uint64_t> summary;
    std::uint64_t count = 0;
    std::size_t scan_hint = 0;
  };

 private:
  friend struct hpmmap::snapshot::Access;

  [[nodiscard]] Addr buddy_of(Addr addr, unsigned order) const noexcept;
  [[nodiscard]] std::uint64_t block_index(Addr addr, unsigned order) const noexcept {
    return (addr - range_.begin) >> (12 + order);
  }
  [[nodiscard]] bool test_bit(unsigned order, std::uint64_t idx) const noexcept {
    const OrderList& list = lists_[order];
    const std::uint64_t w = idx >> 6;
    return w < list.bits.size() && (list.bits[w] >> (idx & 63)) & 1u;
  }
  void insert_block(unsigned order, Addr addr);
  void remove_block(unsigned order, Addr addr);
  /// Lowest-indexed free block of `order`, or nullopt. Amortized O(1).
  [[nodiscard]] std::optional<std::uint64_t> first_block(unsigned order);

  Range range_;
  unsigned max_order_;
  unsigned min_order_;
  std::uint64_t free_bytes_ = 0;
  std::vector<OrderList> lists_;
  /// corrupt_insert_free_block() entries the bitmap cannot represent
  /// (out of range / misaligned): kept aside so the auditor's
  /// enumeration still sees them. Always empty outside corruption tests.
  std::vector<std::pair<Addr, unsigned>> corrupt_blocks_;
  BuddyStats stats_;
};

} // namespace hpmmap::mm
