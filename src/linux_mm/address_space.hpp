// Per-process address space: VMA tree + page table + brk state + the
// lock whose hold times the paper measures.
//
// The mmap_sem / page-table-lock convoy is central to Figure 4: while
// khugepaged performs a merge it holds the lock, and every fault arriving
// meanwhile waits until merge completion (§II-B). The lock is modelled as
// a release timestamp on the simulated clock.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "common/types.hpp"
#include "linux_mm/page_table.hpp"
#include "linux_mm/vma.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::mm {

class AddressSpace {
 public:
  explicit AddressSpace(Pid pid) : pid_(pid) {}

  [[nodiscard]] Pid pid() const noexcept { return pid_; }
  [[nodiscard]] VmaTree& vmas() noexcept { return vmas_; }
  [[nodiscard]] const VmaTree& vmas() const noexcept { return vmas_; }
  [[nodiscard]] PageTable& page_table() noexcept { return pt_; }
  [[nodiscard]] const PageTable& page_table() const noexcept { return pt_; }

  // --- brk ---------------------------------------------------------------
  void set_heap_base(Addr base) noexcept {
    heap_base_ = base;
    heap_end_ = base;
  }
  [[nodiscard]] Addr heap_base() const noexcept { return heap_base_; }
  [[nodiscard]] Addr heap_end() const noexcept { return heap_end_; }
  void set_heap_end(Addr end) noexcept { heap_end_ = end; }

  // --- lock convoy ---------------------------------------------------------
  /// Extend the exclusive hold until at least `until` (merge in
  /// progress). Faults and address-space syscalls queue behind it.
  void lock_until(Cycles until) noexcept {
    if (until > locked_until_) {
      locked_until_ = until;
    }
  }
  /// Cycles a lock acquirer arriving at `now` must wait.
  [[nodiscard]] Cycles lock_wait(Cycles now) const noexcept {
    return locked_until_ > now ? locked_until_ - now : 0;
  }
  [[nodiscard]] bool locked_at(Cycles now) const noexcept { return locked_until_ > now; }

  // --- swap ------------------------------------------------------------------
  /// Reclaim evicted this 4K page to swap; the next fault on it is a
  /// major fault paying a disk read.
  void mark_swapped(Addr page) { swapped_out_.insert(page); }
  /// If `page` was swapped out, clear the mark and return true (the
  /// fault handler charges the swap-in).
  bool take_swapped(Addr page) { return !swapped_out_.empty() && swapped_out_.erase(page) > 0; }
  [[nodiscard]] std::size_t swapped_pages() const noexcept { return swapped_out_.size(); }
  [[nodiscard]] bool is_swapped(Addr page) const { return swapped_out_.contains(page); }
  [[nodiscard]] const std::unordered_set<Addr>& swapped_set() const noexcept {
    return swapped_out_;
  }

  // --- accounting -----------------------------------------------------------
  [[nodiscard]] std::uint64_t rss_bytes() const noexcept { return pt_.mapping_mix().total(); }
  [[nodiscard]] hw::MappingMix mapping_mix() const noexcept { return pt_.mapping_mix(); }

  /// NUMA placement policy for new backing pages. §IV pins the app so
  /// "exactly half its memory was allocated from each NUMA zone (for 1
  /// core tests, all memory came from 1 zone)" — that is kInterleave vs
  /// kSingle here. Interleaving alternates zones per 2 MiB chunk of
  /// virtual address space so both page sizes stripe identically.
  enum class ZonePolicy : std::uint8_t { kSingle, kInterleave };
  void set_zone_policy(ZonePolicy policy, ZoneId home, std::uint32_t zone_count) noexcept {
    zone_policy_ = policy;
    home_zone_ = home;
    zone_count_ = zone_count;
  }
  [[nodiscard]] ZoneId home_zone() const noexcept { return home_zone_; }
  [[nodiscard]] ZoneId zone_for(Addr vaddr) const noexcept {
    if (zone_policy_ == ZonePolicy::kSingle || zone_count_ <= 1) {
      return home_zone_;
    }
    const Addr chunk = vaddr / (2ull * 1024 * 1024);
    return static_cast<ZoneId>(chunk % zone_count_);
  }

 private:
  friend struct hpmmap::snapshot::Access;

  Pid pid_;
  VmaTree vmas_;
  PageTable pt_;
  Addr heap_base_ = 0;
  Addr heap_end_ = 0;
  Cycles locked_until_ = 0;
  std::unordered_set<Addr> swapped_out_;
  ZonePolicy zone_policy_ = ZonePolicy::kSingle;
  ZoneId home_zone_ = 0;
  std::uint32_t zone_count_ = 1;
};

} // namespace hpmmap::mm
