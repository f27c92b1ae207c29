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

#include <array>
#include <cstdint>
#include <optional>
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

/// A run of first-touch faults (DESIGN.md §9.2-9.3): the unmapped pages from
/// one address up to the first mapped page, the end of its VMA, of its
/// 2 MiB region or of the caller's range, faulted in address order.
/// FaultHandler::begin_run() resolves once what those pages share: the
/// VMA, the zone and the run's extent. fault() then handles one page at
/// a time with every per-fault step in its order: lock wait, THP
/// fallback count, swap-in, allocation, PTE install, jitter. After the
/// run's first 4K page the region is THP-ineligible, khugepaged has it,
/// and frames come from the buddy a block at a time. The caller owns
/// the run; the handler keeps nothing between calls.
class FaultRun {
 public:
  /// Every page handled, or the run was cut after its last fault: a
  /// 2 MiB mapping, a failed fault, or direct reclaim (whose swap-out
  /// may unmap pages of the region and so change what the rest sees).
  [[nodiscard]] bool done() const noexcept { return next_ >= end_; }
  /// The address the next fault() handles.
  [[nodiscard]] Addr next() const noexcept { return next_; }

 private:
  friend class FaultHandler;

  /// Rng::lognormal_from_moments(service, cv * service) splits into
  /// parameter transforms of its arguments and one draw; the transforms
  /// are kept here by service, since most pages of a run cost the same.
  struct Jitter {
    Cycles service = 0; // 0 = empty: a zero mean draws nothing
    double mu = 0.0;
    double sigma = 0.0;
  };
  [[nodiscard]] double jitter(Rng& rng, Cycles service, double cv);

  Addr next_ = 0;
  Addr end_ = 0;          // pages [next_, end_) are left
  Addr unmapped_end_ = 0; // pages below it were unmapped at begin_run()
  const Vma* vma_ = nullptr;
  ZoneId zone_ = 0;
  bool small_mapped_ = false; // a 4K page of the run is mapped in the region
  bool noted_ = false;        // khugepaged_enter() ran for the region
  BuddyAllocator::FrameRun frames_{};
  std::uint64_t frames_used_ = 0;
  std::array<Jitter, 4> jitter_{};
};

class FaultHandler {
 public:
  /// `thp` may be null (THP disabled); `hugetlb` may be null (no pools).
  FaultHandler(MemorySystem& memory, ThpService* thp, HugetlbPool* hugetlb);

  /// Handle a fault at `vaddr` at simulated time `now`: the one-page run.
  /// Does not advance any clock: the caller charges `result.cost` to the
  /// faulting thread. `core` only tags trace events (per-core Perfetto
  /// tracks) unless an SmpDomain is attached.
  FaultResult handle(AddressSpace& as, Addr vaddr, Cycles now, std::int32_t core = -1);

  /// The run of faults starting at `vaddr`, reaching no further than
  /// `end`. Its first page is `vaddr`'s, mapped or not; a run outside
  /// any usable VMA or in a hugetlb VMA is that one page.
  [[nodiscard]] FaultRun begin_run(const AddressSpace& as, Addr vaddr, Addr end) const;

  /// Handle the fault at `run.next()` at simulated time `now` and move
  /// the run on: exactly what handle() at that address would do, without
  /// re-resolving what begin_run() did.
  FaultResult fault(FaultRun& run, AddressSpace& as, Cycles now, std::int32_t core = -1);

  /// With an SmpDomain attached (and core >= 0) the handler *executes*
  /// its lock acquisitions — zone buddy lock (or pcp fast path), PT
  /// shard, pending IPI drain — against the domain's virtual-clock lock
  /// state instead of running the uncontended single-core path.
  void attach_smp(SmpDomain* smp) noexcept { smp_ = smp; }

 private:
  FaultResult fault_page(FaultRun& run, AddressSpace& as, Addr vaddr, Cycles now,
                         std::int32_t core);
  /// The run's next frame as the fast-path AllocOutcome alloc_pages()
  /// would have returned, or nullopt when the zone's fast path is closed
  /// to bulk frames (see MemorySystem::alloc_small_frames).
  [[nodiscard]] std::optional<AllocOutcome> run_frame(FaultRun& run, ZoneId zone, Addr page);
  FaultResult handle_hugetlb(FaultRun& run, AddressSpace& as, const Vma& vma, Addr vaddr,
                             Cycles now, Cycles base_cost, Cycles lock_wait, Cycles merge_wait,
                             std::int32_t core);
  FaultResult finish(FaultRun& run, FaultResult result, ZoneId zone);

  MemorySystem& memory_;
  ThpService* thp_;
  HugetlbPool* hugetlb_;
  SmpDomain* smp_ = nullptr;
};

} // namespace hpmmap::mm
