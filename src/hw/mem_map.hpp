// Frame-metadata map over a Linux zone — the moral equivalent of
// Linux's `struct page` mem_map, kept per section as SPARSEMEM does.
//
// Every Linux zone (mm::MemorySystem) owns one MemMap covering its range,
// one byte per 4 KiB frame. It records the owners the zone's buddy does
// not track: page-cache blocks, hugetlb pool pages and frames parked on
// per-CPU pcp lists. A free buddy block is recorded only in the buddy's
// own bitmaps, and the Kitten heaps over offlined memory hold no map.
// Only the *head* of a tracked block is marked (state in the low 3 bits,
// block order in the high 5); blocks are naturally aligned, so the block
// containing an address is found by aligning down at each order and
// probing the head — O(max_order) with no search structure.
//
// The entries come in sections of 1024 (4 MiB, one max-order block).
// Entry 0 of every section is a dense per-section head byte, so a
// section whose only head sits on its first frame costs no per-frame
// bytes. The other 1023 entries live in a 1 KiB buffer that a section
// holds only while at least one of them is nonzero; a per-section count
// of nonzero inner bytes says when the last one clears, and the buffer
// then goes back, zeroed, to the map's spare list for the next section
// that needs one. The buffers are slots of one per-map pool with room
// for every section, reserved at construction and left untouched: slots
// are handed out from the front, so only the most ever held at once
// become resident, and the pool leaves the heap in one piece
// (DESIGN.md §9.5).
//
// The lists over these blocks live with their owners as plain arrays of
// 32-bit frame indices (a range is < 2^32 frames): the page-cache LRU is a
// FIFO, each hugetlb pool a stack.
//
// The MemMap records ownership; it enforces nothing. Owners keep their
// own counts and the invariant auditor cross-checks the two views.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace hpmmap::hw {

/// Who owns the block headed by a frame. kUntracked covers both "frame
/// allocated to a process mapping" and "interior frame of a block" —
/// page tables are the source of truth for mappings.
enum class FrameState : std::uint8_t {
  kUntracked = 0,
  // 1 is unused: a free buddy block lives only in the buddy's bitmaps.
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
  /// Entries per section: 4 MiB of 4 KiB frames.
  static constexpr unsigned kSectionShift = 10;
  static constexpr std::uint32_t kSectionEntries = 1u << kSectionShift;

  /// One meta byte per 4 KiB frame of `range`.
  explicit MemMap(Range range);

  [[nodiscard]] Range range() const noexcept { return range_; }
  [[nodiscard]] std::uint64_t frame_count() const noexcept { return frames_; }
  [[nodiscard]] bool contains(Addr addr) const noexcept { return range_.contains(addr); }

  /// Index of the frame containing `addr`.
  [[nodiscard]] std::uint32_t index_of(Addr addr) const noexcept {
    HPMMAP_ASSERT(range_.contains(addr), "address outside mem_map");
    return static_cast<std::uint32_t>((addr - range_.begin) / kSmallPageSize);
  }
  [[nodiscard]] Addr addr_of(std::uint32_t idx) const noexcept {
    HPMMAP_ASSERT(idx < frames_, "frame index out of range");
    return range_.begin + static_cast<Addr>(idx) * kSmallPageSize;
  }

  [[nodiscard]] FrameState state(std::uint32_t idx) const noexcept {
    return static_cast<FrameState>(read(idx) & 0x7u);
  }
  [[nodiscard]] unsigned order(std::uint32_t idx) const noexcept { return read(idx) >> 3; }

  /// Mark `idx` as the head frame of an `order` block owned by `st`.
  void set_head(std::uint32_t idx, FrameState st, unsigned order) noexcept {
    HPMMAP_ASSERT(order < 32, "order does not fit the meta byte");
    write(idx, static_cast<std::uint8_t>(static_cast<unsigned>(st) | (order << 3)));
  }
  void clear_head(std::uint32_t idx) noexcept { write(idx, 0); }

  /// The tracked block containing `addr` whose state is selected by
  /// `states` (OR of state_mask), as (block base, order). O(max_order)
  /// align-down probes; blocks are naturally aligned so the head of the
  /// containing block at order o is the align-down of `addr` at o. A
  /// candidate that is not a section's first entry lies in `addr`'s own
  /// section's buffer; the others are section head bytes.
  [[nodiscard]] std::optional<std::pair<Addr, unsigned>>
  block_containing(Addr addr, std::uint8_t states, unsigned max_order) const noexcept {
    if (!range_.contains(addr)) {
      return std::nullopt;
    }
    const std::uint64_t idx = (addr - range_.begin) / kSmallPageSize;
    const std::uint8_t* inner = sections_[static_cast<std::size_t>(idx >> kSectionShift)].inner;
    for (unsigned o = 0; o <= max_order; ++o) {
      const std::uint64_t base = idx & ~((std::uint64_t{1} << o) - 1);
      const std::uint64_t i = base & (kSectionEntries - 1);
      const std::uint8_t m = i != 0 ? (inner != nullptr ? inner[i] : 0)
                                    : sections_[static_cast<std::size_t>(base >> kSectionShift)].head;
      if ((states & static_cast<std::uint8_t>(1u << (m & 0x7u))) != 0 && (m >> 3) == o) {
        return std::make_pair(range_.begin + base * kSmallPageSize, o);
      }
    }
    return std::nullopt;
  }

  /// Visit every tracked block head as (addr, state, order), ascending
  /// address. O(sections + materialized entries) with word-wise skipping
  /// of untracked runs — auditor sweeps, not the hot path.
  template <typename Fn>
  void for_each_head(Fn&& fn) const {
    for (std::size_t sec = 0; sec < sections_.size(); ++sec) {
      const Section& s = sections_[sec];
      const std::uint32_t base = static_cast<std::uint32_t>(sec << kSectionShift);
      const auto visit = [&](std::uint32_t i, std::uint8_t m) {
        fn(addr_of(base + i), static_cast<FrameState>(m & 0x7u), static_cast<unsigned>(m >> 3));
      };
      if (s.head != 0) {
        visit(0, s.head);
      }
      const std::uint8_t* inner = s.inner;
      if (inner == nullptr) {
        continue;
      }
      for (std::uint32_t i = 1; i < kSectionEntries;) {
        if ((i & 7) == 0) {
          std::uint64_t w;
          std::memcpy(&w, inner + i, 8);
          if (w == 0) {
            i += 8;
            continue;
          }
        }
        if (inner[i] != 0) {
          visit(i, inner[i]);
        }
        ++i;
      }
    }
  }

  /// Sections whose inner entries hold a buffer now.
  [[nodiscard]] std::size_t materialized_sections() const noexcept {
    return used_ - spare_.size();
  }
  /// Visit every materialized section as (section, stored count,
  /// nonzero inner entries) — the auditor's check that the two agree.
  template <typename Fn>
  void for_each_materialized(Fn&& fn) const {
    for (std::size_t sec = 0; sec < sections_.size(); ++sec) {
      const Section& s = sections_[sec];
      if (s.inner != nullptr) {
        fn(static_cast<std::uint32_t>(sec), unsigned{s.count},
           unsigned{nonzero(s.inner + 1, kSectionEntries - 1)});
      }
    }
  }

  /// Host bytes this map has touched: the section table, every pool
  /// slot handed out (spares included — they are never given back) and
  /// the spare list. The rest of the pool is address space.
  [[nodiscard]] std::uint64_t host_bytes() const noexcept {
    return sections_.capacity() * sizeof(Section) + used_ * std::uint64_t{kSectionEntries} +
           spare_.capacity() * sizeof(spare_[0]);
  }

  /// The dense layout, one byte per entry: the snapshot image's form.
  [[nodiscard]] std::vector<std::uint8_t> to_dense() const;
  /// Overwrite every entry from the dense layout; only sections with a
  /// nonzero inner byte get a buffer.
  void assign_dense(std::span<const std::uint8_t> dense);

  /// Error-injection hook for auditor tests ONLY: overwrite a
  /// materialized section's nonzero-entry count.
  void corrupt_section_count(std::uint32_t section, std::uint16_t count) noexcept;

 private:
  /// Entry 0's byte, and the other entries' 1 KiB buffer ([0] unused, all
  /// zero past the map's last entry), or null while they are all zero.
  struct Section {
    std::uint8_t* inner = nullptr;
    std::uint16_t count = 0; // nonzero bytes in inner
    std::uint8_t head = 0;
  };
  /// Nonzero bytes among p[0, n).
  [[nodiscard]] static std::uint32_t nonzero(const std::uint8_t* p, std::uint32_t n) noexcept;
  [[nodiscard]] std::uint32_t entries_in(std::size_t sec) const noexcept {
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kSectionEntries, frames_ - (std::uint64_t{sec} << kSectionShift)));
  }

  [[nodiscard]] std::uint8_t read(std::uint32_t idx) const noexcept {
    HPMMAP_ASSERT(idx < frames_, "frame index out of range");
    const Section& s = sections_[idx >> kSectionShift];
    const std::uint32_t i = idx & (kSectionEntries - 1);
    return i == 0 ? s.head : s.inner != nullptr ? s.inner[i] : 0;
  }
  /// The hot path stays inline: a head byte, or a byte of a resident
  /// buffer and its count. Taking and parking buffers is out of line.
  void write(std::uint32_t idx, std::uint8_t v) noexcept {
    HPMMAP_ASSERT(idx < frames_, "frame index out of range");
    Section& s = sections_[idx >> kSectionShift];
    const std::uint32_t i = idx & (kSectionEntries - 1);
    if (i == 0) {
      s.head = v;
      return;
    }
    std::uint8_t* inner = s.inner;
    if (inner == nullptr) [[unlikely]] {
      if (v != 0) {
        materialize(s, i, v);
      }
      return;
    }
    const bool was = inner[i] != 0;
    inner[i] = v;
    if (v != 0) {
      s.count = static_cast<std::uint16_t>(s.count + (was ? 0 : 1));
    } else if (was && --s.count == 0) [[unlikely]] {
      release(s);
    }
  }

  /// Give `s` a zeroed buffer: a spare if one is left, else the next
  /// pool slot.
  void take(Section& s);
  /// take(), then `v` at `i`.
  void materialize(Section& s, std::uint32_t i, std::uint8_t v);
  /// Park `s`'s buffer, already zeroed, on the spare list (which take()
  /// sized for every slot handed out, so this never allocates).
  void release(Section& s) noexcept;

  Range range_;
  std::uint64_t frames_ = 0;
  std::vector<Section> sections_;
  /// The buffers: one allocation with a 1 KiB slot per section, never
  /// initialised as a whole; slots are handed out from the front and
  /// zeroed when first taken. A fresh pool's untouched pages stay out of
  /// the resident set, and a dead map leaves one hole in the heap, which
  /// the next pool or image vector fills.
  std::unique_ptr<std::uint8_t[]> pool_;
  std::vector<std::uint8_t*> spare_;
  std::size_t used_ = 0; // slots handed out: materialized + spare
};

} // namespace hpmmap::hw
