// True SMP inside a node: the lock and per-CPU structures concurrent
// faulting cores actually contend on (DESIGN.md §14).
//
// The simulation runs every core of a node as an interleaved actor on
// one discrete-event engine, so a "lock" needs no threads: it is a
// release timestamp on the virtual clock. acquire(now, hold) returns
// the wait this acquirer eats (free_at - now when the lock is still
// held) and extends the release point — FIFO queueing by event order,
// the same idiom AddressSpace::lock_until uses for the khugepaged
// convoy. Contention therefore *emerges* from how core actors happen to
// interleave, instead of being a cost formula in f(cores).
//
// Stamping discipline: every acquire is stamped with the *event's*
// engine time, which is totally ordered across cores — never with a
// worker-private now+cost. Folding a worker's earlier waits into its
// acquire timestamps lets two diverged timelines see each other's
// future holds as spurious wait, and the error compounds exponentially
// with core count. Holds and releases may extend into the future; only
// acquire stamps must ride the global clock.
//
// Three generations of the Linux fault path are switchable per run:
//
//   Linux-1999    one mm-wide page-table lock covering zeroing and PTE
//                 install, every order-0 allocation under the zone lock,
//                 a full IPI shootdown round on every munmap;
//   Linux-today   per-CPU page-frame caches (pcp lists) batching frames
//                 past the zone lock, range-sharded PT locks (the split
//                 page-table-lock analogue, one shard per 2 MiB), and
//                 deferred shootdowns batched into one IPI round;
//   HPMMAP        no SmpDomain at all — per-process management touches
//                 no shared Linux lock (§III-A isolation).
//
// Each feature (pcp, sharding, batching) flips independently so the
// ablation bench can walk the path between the generations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "linux_mm/cost_model.hpp"
#include "linux_mm/memory_system.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::mm {

struct SmpConfig {
  /// Faulting cores modeled (actors the workload drives). Sizes the pcp
  /// array and the IPI fan-out.
  std::uint32_t cores = 1;
  /// Per-CPU page-frame caches in front of the buddy (order-0 only).
  bool pcp = true;
  /// Range-sharded PT locks (per-2MiB shard); off = one mm-wide lock
  /// held across zeroing + install, the Linux-1999 shape.
  bool sharded_pt_locks = true;
  /// Defer munmap shootdowns and flush one IPI round per batch; off =
  /// a full round on every munmap.
  bool batched_shootdowns = true;
  std::uint32_t pcp_batch = 32;       // frames per zone-locked refill
  std::uint32_t pcp_high = 96;        // drain back to pcp_batch above this
  std::uint32_t pt_shards = 64;       // shard count when sharding is on
  std::uint32_t shootdown_batch = 64; // pages deferred per IPI round
};

/// A spinlock on the virtual clock: free_at is when the current holder
/// lets go. Waits are *executed* by the caller charging them to its own
/// timeline, which delays its next event, which is what the next
/// contender observes.
struct SimLock {
  Cycles free_at = 0;

  /// Returns the wait suffered; extends the release point by `hold`.
  Cycles acquire(Cycles now, Cycles hold) noexcept {
    const Cycles start = free_at > now ? free_at : now;
    free_at = start + hold;
    return start - now;
  }
};

/// mmap_sem: readers run in parallel (they only wait out writers);
/// a writer waits out both sides and blocks everything behind it.
struct SimRwSem {
  Cycles writer_free_at = 0;
  Cycles readers_free_at = 0;

  Cycles read_wait(Cycles now) const noexcept {
    return writer_free_at > now ? writer_free_at - now : 0;
  }
  /// Record that a reader holds the sem until `release` (readers never
  /// queue behind each other, so entry and exit are separate steps).
  void read_hold_until(Cycles release) noexcept {
    readers_free_at = std::max(readers_free_at, release);
  }
  Cycles write_acquire(Cycles now, Cycles hold) noexcept {
    const Cycles start = std::max({now, writer_free_at, readers_free_at});
    writer_free_at = start + hold;
    return start - now;
  }
};

/// Deterministic aggregate counters; the bench's ablation table and the
/// telemetry lock-wait series read these.
struct SmpStats {
  Cycles mmap_sem_wait = 0;   // reader + writer wait cycles
  Cycles pt_lock_wait = 0;    // PT lock / shard wait cycles
  Cycles zone_lock_wait = 0;  // zone buddy lock wait cycles
  Cycles ipi_stall = 0;       // cycles cores spent servicing shootdown IPIs
  std::uint64_t pcp_hits = 0;
  std::uint64_t pcp_misses = 0;   // refills taken through the zone lock
  std::uint64_t pcp_refilled_frames = 0;
  std::uint64_t pcp_drains = 0;
  std::uint64_t shootdown_ipis = 0;  // IPI rounds issued
  std::uint64_t shootdown_pages = 0; // pages covered by those rounds

  [[nodiscard]] Cycles total_lock_wait() const noexcept {
    return mmap_sem_wait + pt_lock_wait + zone_lock_wait + ipi_stall;
  }
};

/// Wait/work split of one lock-mediated operation. Callers advance
/// their acquire-stamp clock by `work` only (own holds keep self-waits
/// at zero) and charge `total()` to their timeline — see the stamping
/// discipline in the header comment.
struct LockedOp {
  Cycles wait = 0; // lock-wait cycles suffered
  Cycles work = 0; // service cycles, lock holds included
  [[nodiscard]] Cycles total() const noexcept { return wait + work; }
};

/// Outcome of an order-0 allocation through the SMP fast path.
struct SmallAlloc {
  Addr addr = 0;
  bool ok = false;
  Cycles work = 0;  // service cycles (pcp pop, or refill + buddy work)
  Cycles wait = 0;  // zone-lock wait cycles suffered
  bool entered_reclaim = false;
  bool from_pcp = false;
};

class SmpDomain {
 public:
  SmpDomain(const SmpConfig& config, const CostModel& costs, std::uint32_t zones);

  // --- mmap_sem ---------------------------------------------------------
  /// Reader entry at `now`: wait out any writer. Pair with read_exit once
  /// the fault's residence time is known.
  Cycles mmap_sem_read_enter(Pid pid, Cycles now, std::int32_t core);
  void mmap_sem_read_exit(Pid pid, Cycles release);
  /// Writer (mmap/munmap/brk): waits out readers and writers.
  Cycles mmap_sem_write(Pid pid, Cycles now, Cycles hold, std::int32_t core);

  // --- PT locks ---------------------------------------------------------
  /// Acquire the PT lock covering `vaddr` for `hold` cycles. One mm-wide
  /// lock when sharding is off; the vaddr's 2MiB shard when on.
  Cycles pt_lock(Pid pid, Addr vaddr, Cycles now, Cycles hold, std::int32_t core);

  // --- IPIs -------------------------------------------------------------
  /// Deliver this core's pending shootdown IPIs: the wait until its
  /// interrupt backlog clears. Charged at fault entry.
  Cycles cpu_drain(std::int32_t core, Cycles now);

  // --- frame alloc/free through pcp -------------------------------------
  /// Execute a raw zone-lock acquire for `hold` cycles of buddy work that
  /// happened elsewhere (THP order-9 allocations bypass the pcp lists).
  Cycles zone_lock(ZoneId zone, Cycles now, Cycles hold, std::int32_t core);
  SmallAlloc alloc_small(MemorySystem& mem, ZoneId zone, std::int32_t core, Cycles now);
  /// Free one order-0 frame via this CPU's pcp list (drains above the
  /// high watermark); straight to the zone buddy when pcp is off.
  LockedOp free_small(MemorySystem& mem, ZoneId zone, std::int32_t core, Addr addr, Cycles now);
  /// Zone-locked free for order > 0 blocks (no pcp path exists for them).
  LockedOp free_block(MemorySystem& mem, ZoneId zone, std::int32_t core, Addr addr, unsigned order,
                      Cycles now);

  // --- shootdowns -------------------------------------------------------
  /// Note `pages` leaves unmapped from pid's mm by `core`. Batched mode
  /// defers until shootdown_batch pages are pending; unbatched pays a
  /// full IPI round now. Returns cycles charged to the unmapping core.
  Cycles note_unmap(Pid pid, std::uint64_t pages, std::int32_t core, Cycles now);
  /// Flush pid's pending shootdown pages unconditionally (exit/teardown).
  Cycles flush_shootdowns(Pid pid, std::int32_t core, Cycles now);

  /// Forget a dead process's lock state and pending shootdowns.
  void drop_mm(Pid pid);

  [[nodiscard]] const SmpConfig& config() const noexcept { return config_; }
  [[nodiscard]] const SmpStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint32_t zone_count() const noexcept { return zones_; }

  /// Frames currently parked on pcp lists for `zone`, in bytes — the
  /// auditor's conservation term.
  [[nodiscard]] std::uint64_t pcp_cached_bytes(ZoneId zone) const;
  /// Visit every cached frame as (cpu, zone, addr), cpu-major then list
  /// order — the auditor's ownership sweep.
  template <typename Fn>
  void for_each_pcp_frame(Fn&& fn) const {
    for (std::uint32_t cpu = 0; cpu < config_.cores; ++cpu) {
      for (std::uint32_t z = 0; z < zones_; ++z) {
        for (const Addr addr : pcp_[pcp_index(cpu, z)].frames) {
          fn(cpu, z, addr);
        }
      }
    }
  }

  /// Error-injection hook for auditor tests ONLY: append `from_cpu`'s
  /// newest cached frame in `zone` onto `to_cpu`'s list as well, the
  /// double-ownership corruption the pcp audit must catch.
  void corrupt_clone_pcp_frame(std::uint32_t from_cpu, std::uint32_t to_cpu, ZoneId zone);

 private:
  friend struct hpmmap::snapshot::Access;

  /// Per-mm lock state, created lazily per pid (sorted by pid for
  /// deterministic sweeps, binary-searched on the hot path).
  struct MmState {
    Pid pid = 0;
    SimRwSem mmap_sem;
    std::vector<SimLock> pt_shards; // size 1 when sharding is off
    std::uint64_t pending_shootdown_pages = 0;
  };

  struct PcpList {
    std::vector<Addr> frames; // LIFO: back is hottest
  };

  MmState& mm(Pid pid);
  [[nodiscard]] std::size_t pcp_index(std::uint32_t cpu, ZoneId zone) const noexcept {
    return static_cast<std::size_t>(cpu) * zones_ + zone;
  }
  [[nodiscard]] SimLock& pt_shard(MmState& m, Addr vaddr) noexcept;
  /// One IPI round from `core` covering `pages`; stalls every other core
  /// and returns the sender's cost.
  Cycles ipi_round(std::int32_t core, std::uint64_t pages, Cycles now);
  /// Drain `list` down to pcp_batch frames under one zone-lock acquire.
  LockedOp drain_list(MemorySystem& mem, ZoneId zone, PcpList& list, Cycles now,
                    std::size_t down_to);

  SmpConfig config_;
  CostModel costs_;
  std::uint32_t zones_;
  std::vector<SimLock> zone_locks_;   // one per zone
  std::vector<Cycles> cpu_stall_;     // per-core IPI backlog clears at [c]
  std::vector<MmState> mms_;          // sorted by pid
  std::vector<PcpList> pcp_;          // [cpu * zones + zone]
  SmpStats stats_;
};

} // namespace hpmmap::mm
