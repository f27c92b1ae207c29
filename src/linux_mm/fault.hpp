// The demand-paging fault handler — the code path whose cost the paper
// measures in Figures 2-5.
//
// Linux backs no allocation until first touch (§II-A); every touch of an
// unbacked page lands here. The handler's cost is composed from the
// mechanisms actually exercised on that fault:
//
//   wait on the PT lock (a khugepaged merge may hold it)
//   + handler entry + VMA lookup
//   + [THP] attempt order-9 allocation (reclaim/compaction under load)
//   + buddy allocation (order 0 fallback; direct reclaim under load)
//   + page zeroing at the contended streaming rate
//   + PTE install + rmap/LRU accounting
//   x lognormal jitter (caches, IRQs)
#pragma once

#include <cstdint>
#include <string_view>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "linux_mm/address_space.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/memory_system.hpp"
#include "linux_mm/thp.hpp"

namespace hpmmap::mm {

class SmpDomain;

/// Classification matching the paper's figures: "Small" (red), "Large"
/// (green), "Merge" = a fault that had to wait on a THP merge (blue).
enum class FaultKind : std::uint8_t {
  kSmall,         // 4K anonymous fault
  kLarge,         // 2M fault (THP fault path or hugetlbfs)
  kMergeFollower, // blocked behind a khugepaged merge
  kInvalid,       // segfault (no VMA / bad permissions)
};

/// Number of FaultKind values; sized arrays indexed by FaultKind use
/// this instead of a magic 4.
inline constexpr std::size_t kFaultKindCount = 4;

[[nodiscard]] constexpr std::string_view name(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kSmall:         return "Small";
    case FaultKind::kLarge:         return "Large";
    case FaultKind::kMergeFollower: return "Merge";
    case FaultKind::kInvalid:       return "Invalid";
  }
  return "?";
}

struct FaultResult {
  Errno err = Errno::kOk;
  FaultKind kind = FaultKind::kSmall;
  PageSize used = PageSize::k4K;
  Cycles cost = 0;           // total handler residence, incl. lock wait
  Cycles lock_wait = 0;      // portion spent queued on the PT lock
  bool entered_reclaim = false;
};

/// Per-process fault counters, grouped the way Figure 2/3 reports them.
struct FaultStats {
  std::uint64_t count[kFaultKindCount] = {};   // indexed by FaultKind
  Cycles total_cycles[kFaultKindCount] = {};
  void record(FaultKind kind, Cycles cost) noexcept {
    const auto i = static_cast<std::size_t>(kind);
    ++count[i];
    total_cycles[i] += cost;
  }
};

/// Walked as its raw bytes: the probe behind the default field list
/// (snapshot/archive.hpp) counts each C-array element as a member.
template <class Ar>
void fields(Ar& ar, FaultStats& s) {
  ar.pod(s);
}

class FaultHandler {
 public:
  /// `thp` may be null (THP disabled); `hugetlb` may be null (no pools).
  FaultHandler(MemorySystem& memory, ThpService* thp, HugetlbPool* hugetlb);

  /// Handle a fault at `vaddr` at simulated time `now`. Does not advance
  /// any clock: the caller charges `result.cost` to the faulting thread.
  /// `core` only tags trace events (per-core Perfetto tracks).
  FaultResult handle(AddressSpace& as, Addr vaddr, Cycles now, std::int32_t core = -1);

  /// With an SmpDomain attached (and core >= 0) the handler *executes*
  /// its lock acquisitions — zone buddy lock (or pcp fast path), PT
  /// shard, pending IPI drain — against the domain's virtual-clock lock
  /// state instead of running the uncontended single-core path.
  void attach_smp(SmpDomain* smp) noexcept { smp_ = smp; }

 private:
  FaultResult handle_hugetlb(AddressSpace& as, const Vma& vma, Addr vaddr, Cycles now,
                             Cycles base_cost, Cycles lock_wait, Cycles merge_wait,
                             std::int32_t core);
  FaultResult finish(FaultResult result, ZoneId zone);

  MemorySystem& memory_;
  ThpService* thp_;
  HugetlbPool* hugetlb_;
  SmpDomain* smp_ = nullptr;
};

} // namespace hpmmap::mm
