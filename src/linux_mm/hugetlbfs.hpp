// HugeTLBfs: preallocated per-NUMA-zone large-page pools (§II-C).
//
// The pools are reserved at boot from pristine (unfragmented) zones —
// the real system's `hugepages=` boot parameter — and are invisible to
// the normal allocator afterwards. That exclusivity is the double-edged
// sword Figure 5 documents: hugetlb faults always find memory, while the
// rest of the system fights over what is left.
//
// Each zone's free pages are a LIFO stack of zone-relative head-frame
// indices, beside a pooled bit per 2 MiB page of the zone: the bit keeps
// a double free_page from pushing a page twice, and the auditor
// cross-checks the stack against it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "linux_mm/memory_system.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::mm {

struct HugetlbStats {
  std::uint64_t pool_pages_total = 0;
  std::uint64_t faults_served = 0;
  std::uint64_t pool_exhausted = 0;
};

class HugetlbPool {
 public:
  /// Reserve `bytes_per_zone` of 2M pages from every zone. Must run at
  /// "boot" (before any fragmentation); aborts if reservation fails,
  /// matching a failed hugepages= boot line.
  HugetlbPool(MemorySystem& memory, std::uint64_t bytes_per_zone);
  ~HugetlbPool();

  HugetlbPool(const HugetlbPool&) = delete;
  HugetlbPool& operator=(const HugetlbPool&) = delete;

  /// Take one 2M page, preferring `zone`, spilling to any other zone
  /// with free pool pages. nullopt when every pool is empty (the
  /// application gets SIGBUS on the real system).
  [[nodiscard]] std::optional<std::pair<Addr, ZoneId>> alloc_page(ZoneId zone);

  /// Return a page to its zone's pool.
  void free_page(ZoneId zone, Addr addr);

  [[nodiscard]] std::uint64_t free_pages(ZoneId zone) const;
  [[nodiscard]] std::uint64_t total_pages(ZoneId zone) const;
  [[nodiscard]] const HugetlbStats& stats() const noexcept { return state_.stats; }

  /// Visit the zone's free pool pages as (addr), newest first (stack
  /// order) — the invariant auditor's frame sweep.
  template <typename Fn>
  void for_each_pool_page(ZoneId zone, Fn&& fn) const {
    HPMMAP_ASSERT(zone < state_.pool.size(), "zone out of range");
    const Addr begin = memory_.buddy(zone).range().begin;
    const std::vector<std::uint32_t>& stack = state_.pool[zone].stack;
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      fn(begin + static_cast<Addr>(*it) * kSmallPageSize);
    }
  }

  /// Whether the zone's pooled bit for the 2 MiB page at `addr` is set.
  [[nodiscard]] bool pooled(ZoneId zone, Addr addr) const;
  /// Pooled bits set in the zone; the stack's length when they agree.
  [[nodiscard]] std::uint64_t pooled_count(ZoneId zone) const;

  /// One zone's free stack of zone-relative frame indices, top at the
  /// back, and its pooled bit per 2 MiB page. A stack only ever holds
  /// frames of its own zone (reservation and free_page both key by the
  /// frame's physical zone). The count is kept apart so the auditor can
  /// catch a drift between it and the stack.
  struct ZonePool {
    std::vector<std::uint32_t> stack;
    std::uint64_t count = 0;
    std::vector<std::uint64_t> pooled;
  };
  /// The members a snapshot image holds as they are (snapshot/image.hpp).
  struct State {
    std::vector<ZonePool> pool;
    std::vector<std::uint64_t> total;
    HugetlbStats stats;
  };

 private:
  friend struct hpmmap::snapshot::Access;

  /// Stack push (ctor reservation and free_page share it).
  void push(ZoneId zone, Addr addr);
  /// Pop the zone's top page, clearing its pooled bit.
  Addr pop(ZoneId zone);
  /// The zone's 2 MiB page index of `addr`.
  [[nodiscard]] std::uint64_t page_of(ZoneId zone, Addr addr) const;

  MemorySystem& memory_;
  State state_;
};

} // namespace hpmmap::mm
