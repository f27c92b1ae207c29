// Contiguous frame-metadata array over a physical range — the moral
// equivalent of Linux's `struct page` mem_map.
//
// Every BuddyAllocator owns one MemMap covering its range. It stores one
// byte per block of the allocator's smallest order, dense: per 4 KiB frame
// for a Linux zone (min order 0), per 2 MiB block for a Kitten heap (min
// order 9, the smallest page HPMMAP maps). Only the *head* of a tracked
// block is marked (state in the low 3 bits, block order in the high 5;
// orders count 4 KiB pages at any granularity); blocks are naturally
// aligned, so the block containing an address is found by aligning down
// at each order and probing the head — O(max_order) with no search
// structure. At 1 byte/frame a 12 GiB zone costs 3 MiB, against hundreds
// of megabytes for a struct-per-frame layout.
//
// The lists over these blocks live with their owners as plain arrays of
// 32-bit frame indices (a range is < 2^32 frames): the page-cache LRU is a
// FIFO, each hugetlb pool a stack.
//
// The MemMap records ownership; it enforces nothing. Owners keep their
// own counts and the invariant auditor cross-checks the two views.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::hw {

/// Who owns the block headed by a frame. kUntracked covers both "frame
/// allocated to a process mapping" and "interior frame of a block" —
/// page tables are the source of truth for mappings.
enum class FrameState : std::uint8_t {
  kUntracked = 0,
  kBuddyFree = 1,
  kCacheClean = 2,
  kCacheDirty = 3,
  kHugetlbPool = 4,
  kPcpCache = 5, // order-0 frame parked on a per-CPU page-frame cache
};

/// Bitmask selecting a FrameState for block_containing() probes.
[[nodiscard]] constexpr std::uint8_t state_mask(FrameState s) noexcept {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(s));
}
inline constexpr std::uint8_t kCacheStates =
    state_mask(FrameState::kCacheClean) | state_mask(FrameState::kCacheDirty);

class MemMap {
 public:
  /// One meta byte per (4 KiB << min_order) block of `range`.
  explicit MemMap(Range range, unsigned min_order = 0) : range_(range), shift_(12 + min_order) {
    HPMMAP_ASSERT(!range_.empty(), "mem_map range must be non-empty");
    HPMMAP_ASSERT(is_aligned(range_.begin, kSmallPageSize) && is_aligned(range_.end, kSmallPageSize),
                  "mem_map range must be page-aligned");
    HPMMAP_ASSERT(is_aligned(range_.size(), std::uint64_t{1} << shift_),
                  "mem_map range must be a whole number of min-order blocks");
    HPMMAP_ASSERT(range_.size() >> shift_ <= std::uint64_t{1} << 32,
                  "range too large for 32-bit frame indices");
    meta_.assign(static_cast<std::size_t>(range_.size() >> shift_), 0);
  }

  [[nodiscard]] Range range() const noexcept { return range_; }
  /// Meta entries: one per min-order block (per 4 KiB frame at order 0).
  [[nodiscard]] std::uint64_t frame_count() const noexcept { return meta_.size(); }
  [[nodiscard]] unsigned min_order() const noexcept { return shift_ - 12; }
  [[nodiscard]] bool contains(Addr addr) const noexcept { return range_.contains(addr); }

  /// Index of the min-order block containing `addr`.
  [[nodiscard]] std::uint32_t index_of(Addr addr) const noexcept {
    HPMMAP_ASSERT(range_.contains(addr), "address outside mem_map");
    return static_cast<std::uint32_t>((addr - range_.begin) >> shift_);
  }
  [[nodiscard]] Addr addr_of(std::uint32_t idx) const noexcept {
    HPMMAP_ASSERT(idx < meta_.size(), "frame index out of range");
    return range_.begin + (static_cast<Addr>(idx) << shift_);
  }

  [[nodiscard]] FrameState state(std::uint32_t idx) const noexcept {
    HPMMAP_ASSERT(idx < meta_.size(), "frame index out of range");
    return static_cast<FrameState>(meta_[idx] & 0x7u);
  }
  [[nodiscard]] unsigned order(std::uint32_t idx) const noexcept {
    HPMMAP_ASSERT(idx < meta_.size(), "frame index out of range");
    return meta_[idx] >> 3;
  }

  /// Mark `idx` as the head frame of an `order` block owned by `st`.
  void set_head(std::uint32_t idx, FrameState st, unsigned order) noexcept {
    HPMMAP_ASSERT(idx < meta_.size(), "frame index out of range");
    HPMMAP_ASSERT(order < 32, "order does not fit the meta byte");
    meta_[idx] = static_cast<std::uint8_t>(static_cast<unsigned>(st) | (order << 3));
  }
  void clear_head(std::uint32_t idx) noexcept {
    HPMMAP_ASSERT(idx < meta_.size(), "frame index out of range");
    meta_[idx] = 0;
  }
  /// clear_head() on each of the `count` entries from `first`.
  void clear_heads(std::uint32_t first, std::uint32_t count) noexcept {
    HPMMAP_ASSERT(first <= meta_.size() && count <= meta_.size() - first,
                  "frame index out of range");
    std::memset(meta_.data() + first, 0, count);
  }

  /// The tracked block containing `addr` whose state is selected by
  /// `states` (OR of state_mask), as (block base, order). O(max_order)
  /// align-down probes; blocks are naturally aligned so the head of the
  /// containing block at order o is the align-down of `addr` at o.
  [[nodiscard]] std::optional<std::pair<Addr, unsigned>>
  block_containing(Addr addr, std::uint8_t states, unsigned max_order) const noexcept {
    if (!range_.contains(addr)) {
      return std::nullopt;
    }
    const std::uint64_t off = addr - range_.begin;
    for (unsigned o = min_order(); o <= max_order; ++o) {
      const std::uint64_t base = align_down(off, kSmallPageSize << o);
      const std::uint8_t m = meta_[base >> shift_];
      if ((states & static_cast<std::uint8_t>(1u << (m & 0x7u))) != 0 && (m >> 3) == o) {
        return std::make_pair(range_.begin + base, o);
      }
    }
    return std::nullopt;
  }

  /// Visit every tracked block head as (addr, state, order), ascending
  /// address. O(frames) with word-wise skipping of untracked runs —
  /// auditor sweeps, not the hot path.
  template <typename Fn>
  void for_each_head(Fn&& fn) const {
    std::size_t i = 0;
    const std::size_t n = meta_.size();
    while (i < n) {
      if (i + 8 <= n) {
        std::uint64_t w;
        std::memcpy(&w, meta_.data() + i, 8);
        if (w == 0) {
          i += 8;
          continue;
        }
      }
      if (meta_[i] != 0) {
        fn(addr_of(static_cast<std::uint32_t>(i)), static_cast<FrameState>(meta_[i] & 0x7u),
           static_cast<unsigned>(meta_[i] >> 3));
      }
      ++i;
    }
  }

 private:
  friend struct hpmmap::snapshot::Access;

  Range range_;
  unsigned shift_; // log2 of the bytes one meta byte covers
  std::vector<std::uint8_t> meta_;
};

} // namespace hpmmap::hw
