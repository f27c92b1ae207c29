// Contiguous frame-metadata array over a physical range — the moral
// equivalent of Linux's `struct page` mem_map.
//
// Every BuddyAllocator owns one MemMap covering its range; the mm hot
// path (buddy freelists, page-cache LRU, hugetlb pool stacks) threads
// its bookkeeping through it instead of heap-allocating tree/list nodes
// per block. Two stores back the abstraction:
//
//   meta   one byte per 4 KiB frame, dense. Only the *head* frame of a
//          tracked block is marked (state in the low 3 bits, block order
//          in the high 5); blocks are naturally aligned, so the block
//          containing an address is found by aligning down at each order
//          and probing the head — O(max_order) with no search structure.
//          At 1 byte/frame a 12 GiB zone costs 3 MiB, against hundreds
//          of megabytes for a struct-per-frame layout.
//
//   links  a sparse open-addressing table from frame index to
//          {next, prev} frame indices, for the intrusive lists (LRU
//          order, pool stacks) that only ever cover a small fraction of
//          frames. Linear probing, power-of-two capacity, backward-shift
//          deletion; indices are 32-bit (a range is < 2^32 frames).
//
// The MemMap records ownership; it enforces nothing. Owners keep their
// own counts and the invariant auditor cross-checks the two views.
#pragma once

#include <bit>
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
  /// Null frame index: list terminator / absent link.
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Link {
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
  };

  explicit MemMap(Range range) : range_(range) {
    HPMMAP_ASSERT(!range_.empty(), "mem_map range must be non-empty");
    HPMMAP_ASSERT(is_aligned(range_.begin, kSmallPageSize) && is_aligned(range_.end, kSmallPageSize),
                  "mem_map range must be page-aligned");
    HPMMAP_ASSERT(range_.size() >> 12 < kNil, "range too large for 32-bit frame indices");
    meta_.assign(static_cast<std::size_t>(range_.size() >> 12), 0);
  }

  [[nodiscard]] Range range() const noexcept { return range_; }
  [[nodiscard]] std::uint64_t frame_count() const noexcept { return meta_.size(); }
  [[nodiscard]] bool contains(Addr addr) const noexcept { return range_.contains(addr); }

  [[nodiscard]] std::uint32_t index_of(Addr addr) const noexcept {
    HPMMAP_ASSERT(range_.contains(addr), "address outside mem_map");
    return static_cast<std::uint32_t>((addr - range_.begin) >> 12);
  }
  [[nodiscard]] Addr addr_of(std::uint32_t idx) const noexcept {
    HPMMAP_ASSERT(idx < meta_.size(), "frame index out of range");
    return range_.begin + (static_cast<Addr>(idx) << 12);
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
    for (unsigned o = 0; o <= max_order; ++o) {
      const std::uint64_t base = align_down(off, kSmallPageSize << o);
      const std::uint8_t m = meta_[base >> 12];
      if ((states & static_cast<std::uint8_t>(1u << (m & 0x7u))) != 0 && (m >> 3) == o) {
        return std::make_pair(range_.begin + base, o);
      }
    }
    return std::nullopt;
  }

  // --- intrusive links -------------------------------------------------

  [[nodiscard]] bool has_link(std::uint32_t idx) const noexcept {
    return find_slot(idx) != kNotFound;
  }
  [[nodiscard]] Link link(std::uint32_t idx) const noexcept {
    const std::size_t slot = find_slot(idx);
    HPMMAP_ASSERT(slot != kNotFound, "frame has no link entry");
    return slots_[slot].link;
  }
  /// Insert or update the link entry for `idx`.
  void set_link(std::uint32_t idx, Link l) {
    if (slots_.empty() || (link_count_ + 1) * 10 > slots_.size() * 7) {
      rehash(slots_.empty() ? 64 : slots_.size() * 2);
    }
    std::size_t pos = home(idx);
    while (slots_[pos].key != kNil && slots_[pos].key != idx) {
      pos = (pos + 1) & (slots_.size() - 1);
    }
    if (slots_[pos].key == kNil) {
      slots_[pos].key = idx;
      ++link_count_;
    }
    slots_[pos].link = l;
  }
  void set_next(std::uint32_t idx, std::uint32_t next) {
    const std::size_t slot = find_slot(idx);
    HPMMAP_ASSERT(slot != kNotFound, "frame has no link entry");
    slots_[slot].link.next = next;
  }
  void set_prev(std::uint32_t idx, std::uint32_t prev) {
    const std::size_t slot = find_slot(idx);
    HPMMAP_ASSERT(slot != kNotFound, "frame has no link entry");
    slots_[slot].link.prev = prev;
  }
  void erase_link(std::uint32_t idx) {
    std::size_t pos = find_slot(idx);
    HPMMAP_ASSERT(pos != kNotFound, "erase of a frame with no link entry");
    // Backward-shift deletion keeps every probe chain gap-free.
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = pos;
    std::size_t probe = pos;
    for (;;) {
      probe = (probe + 1) & mask;
      if (slots_[probe].key == kNil) {
        break;
      }
      const std::size_t h = home(slots_[probe].key);
      // Move the entry back iff its home does not lie in (hole, probe].
      const bool keep = hole < probe ? (h > hole && h <= probe) : (h > hole || h <= probe);
      if (!keep) {
        slots_[hole] = slots_[probe];
        hole = probe;
      }
    }
    slots_[hole].key = kNil;
    slots_[hole].link = Link{};
    --link_count_;
  }
  [[nodiscard]] std::size_t link_count() const noexcept { return link_count_; }

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

  struct Slot {
    std::uint32_t key = kNil;
    Link link;
  };
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  /// Fibonacci hashing: the top log2(capacity) bits of a 64-bit golden-
  /// ratio product. Block heads are aligned to their order, so their low
  /// bits are mostly zero; the high bits of the product mix in every key
  /// bit and spread aligned keys evenly over the table.
  [[nodiscard]] std::size_t home(std::uint32_t key) const noexcept {
    const int shift = std::countl_zero(static_cast<std::uint64_t>(slots_.size())) + 1;
    return static_cast<std::size_t>((std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> shift);
  }
  [[nodiscard]] std::size_t find_slot(std::uint32_t key) const noexcept {
    if (slots_.empty()) {
      return kNotFound;
    }
    std::size_t pos = home(key);
    while (slots_[pos].key != kNil) {
      if (slots_[pos].key == key) {
        return pos;
      }
      pos = (pos + 1) & (slots_.size() - 1);
    }
    return kNotFound;
  }
  void rehash(std::size_t new_cap);

  Range range_;
  std::vector<std::uint8_t> meta_;
  std::vector<Slot> slots_;
  std::size_t link_count_ = 0;
};

} // namespace hpmmap::hw
