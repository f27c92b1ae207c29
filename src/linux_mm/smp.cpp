#include "linux_mm/smp.hpp"

#include "common/assert.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace hpmmap::mm {

namespace {

/// One kLock tracepoint per suffered wait: a complete-event spanning the
/// spin, on the waiter's core track. Zero-wait acquires stay silent so
/// the flight recorder holds contention, not bookkeeping.
void trace_wait(const char* lock_name, Cycles now, Cycles wait, Cycles hold, Pid pid,
                std::int32_t core) {
  if (wait == 0 || !trace::on(trace::Category::kLock)) {
    return;
  }
  trace::complete(trace::Category::kLock, lock_name, now, wait, pid, core,
                  {trace::Arg::u64("hold", hold)});
  trace::metrics().counter(lock_name) += wait;
}

} // namespace

SmpDomain::SmpDomain(const SmpConfig& config, const CostModel& costs, std::uint32_t zones)
    : config_(config), costs_(costs), zones_(zones) {
  HPMMAP_ASSERT(config_.cores > 0, "SMP domain needs at least one core");
  HPMMAP_ASSERT(zones_ > 0, "SMP domain needs at least one zone");
  zone_locks_.resize(zones_);
  cpu_stall_.assign(config_.cores, 0);
  pcp_.resize(static_cast<std::size_t>(config_.cores) * zones_);
}

SmpDomain::MmState& SmpDomain::mm(Pid pid) {
  const auto it = std::lower_bound(
      mms_.begin(), mms_.end(), pid,
      [](const MmState& m, Pid p) { return m.pid < p; });
  if (it != mms_.end() && it->pid == pid) {
    return *it;
  }
  MmState fresh;
  fresh.pid = pid;
  fresh.pt_shards.resize(config_.sharded_pt_locks ? config_.pt_shards : 1);
  return *mms_.insert(it, std::move(fresh));
}

void SmpDomain::drop_mm(Pid pid) {
  const auto it = std::lower_bound(
      mms_.begin(), mms_.end(), pid,
      [](const MmState& m, Pid p) { return m.pid < p; });
  if (it != mms_.end() && it->pid == pid) {
    mms_.erase(it);
  }
}

SimLock& SmpDomain::pt_shard(MmState& m, Addr vaddr) noexcept {
  if (m.pt_shards.size() == 1) {
    return m.pt_shards[0];
  }
  return m.pt_shards[(vaddr >> 21) % m.pt_shards.size()];
}

Cycles SmpDomain::mmap_sem_read_enter(Pid pid, Cycles now, std::int32_t core) {
  const Cycles wait = mm(pid).mmap_sem.read_wait(now);
  stats_.mmap_sem_wait += wait;
  trace_wait("lock.mmap_sem.read", now, wait, 0, pid, core);
  return wait;
}

void SmpDomain::mmap_sem_read_exit(Pid pid, Cycles release) {
  mm(pid).mmap_sem.read_hold_until(release);
}

Cycles SmpDomain::mmap_sem_write(Pid pid, Cycles now, Cycles hold, std::int32_t core) {
  const Cycles wait = mm(pid).mmap_sem.write_acquire(now, hold);
  stats_.mmap_sem_wait += wait;
  trace_wait("lock.mmap_sem.write", now, wait, hold, pid, core);
  return wait;
}

Cycles SmpDomain::pt_lock(Pid pid, Addr vaddr, Cycles now, Cycles hold, std::int32_t core) {
  const Cycles wait = pt_shard(mm(pid), vaddr).acquire(now, hold + costs_.smp_lock_acquire);
  stats_.pt_lock_wait += wait;
  trace_wait("lock.pt", now, wait, hold, pid, core);
  return wait;
}

Cycles SmpDomain::cpu_drain(std::int32_t core, Cycles now) {
  if (core < 0 || static_cast<std::uint32_t>(core) >= config_.cores) {
    return 0;
  }
  const Cycles clears = cpu_stall_[static_cast<std::size_t>(core)];
  const Cycles wait = clears > now ? clears - now : 0;
  stats_.ipi_stall += wait;
  trace_wait("lock.ipi_drain", now, wait, 0, 0, core);
  return wait;
}

Cycles SmpDomain::zone_lock(ZoneId zone, Cycles now, Cycles hold, std::int32_t core) {
  HPMMAP_ASSERT(zone < zones_, "zone out of range");
  const Cycles wait = zone_locks_[zone].acquire(now, hold + costs_.smp_lock_acquire);
  stats_.zone_lock_wait += wait;
  trace_wait("lock.zone", now, wait, hold, 0, core);
  return wait;
}

SmallAlloc SmpDomain::alloc_small(MemorySystem& mem, ZoneId zone, std::int32_t core, Cycles now) {
  HPMMAP_ASSERT(zone < zones_, "zone out of range");
  SmallAlloc out;
  const std::uint32_t cpu =
      core >= 0 ? static_cast<std::uint32_t>(core) % config_.cores : 0;

  if (config_.pcp) {
    PcpList& list = pcp_[pcp_index(cpu, zone)];
    if (!list.frames.empty()) {
      out.addr = list.frames.back();
      list.frames.pop_back();
      hw::MemMap& map = mem.buddy(zone).mem_map();
      map.clear_head(map.index_of(out.addr));
      out.ok = true;
      out.from_pcp = true;
      out.work = costs_.smp_pcp_op;
      ++stats_.pcp_hits;
      return out;
    }
    // Miss: refill a batch from the buddy under one zone-lock acquire.
    ++stats_.pcp_misses;
    BuddyAllocator& buddy = mem.buddy(zone);
    hw::MemMap& map = buddy.mem_map();
    Cycles hold = costs_.smp_lock_acquire;
    std::uint32_t got = 0;
    for (std::uint32_t i = 0; i < config_.pcp_batch; ++i) {
      const auto a = buddy.alloc(0);
      if (!a.has_value()) {
        break;
      }
      hold += costs_.buddy_base + a->split_steps * costs_.buddy_split_step +
              costs_.smp_pcp_move_frame;
      if (got == 0) {
        out.addr = a->addr; // first (lowest) frame satisfies this fault
        out.ok = true;
      } else {
        map.set_head(map.index_of(a->addr), hw::FrameState::kPcpCache, 0);
        list.frames.push_back(a->addr);
      }
      ++got;
    }
    stats_.pcp_refilled_frames += got;
    out.wait = zone_locks_[zone].acquire(now, hold);
    stats_.zone_lock_wait += out.wait;
    trace_wait("lock.zone", now, out.wait, hold, 0, core);
    out.work = hold;
    if (out.ok) {
      return out;
    }
    // Buddy empty even for the batch's first frame: fall through to the
    // full slow path (reclaim) below, zone lock already paid.
  }

  // No pcp (or refill found nothing): the allocation itself runs under
  // the zone lock, reclaim included — the pre-pcp kernel's behavior.
  const AllocOutcome slow = mem.alloc_pages(zone, 0, /*allow_reclaim=*/true);
  const Cycles slow_work = mem.alloc_cycles(slow, zone) + costs_.smp_lock_acquire;
  const Cycles wait = zone_locks_[zone].acquire(now, slow_work);
  stats_.zone_lock_wait += wait;
  trace_wait("lock.zone", now, wait, slow_work, 0, core);
  out.wait += wait;
  out.work += slow_work;
  out.addr = slow.addr;
  out.ok = slow.ok;
  out.entered_reclaim = slow.entered_reclaim;
  return out;
}

LockedOp SmpDomain::free_small(MemorySystem& mem, ZoneId zone, std::int32_t core, Addr addr,
                               Cycles now) {
  HPMMAP_ASSERT(zone < zones_, "zone out of range");
  if (!config_.pcp) {
    return free_block(mem, zone, core, addr, 0, now);
  }
  const std::uint32_t cpu =
      core >= 0 ? static_cast<std::uint32_t>(core) % config_.cores : 0;
  PcpList& list = pcp_[pcp_index(cpu, zone)];
  hw::MemMap& map = mem.buddy(zone).mem_map();
  map.set_head(map.index_of(addr), hw::FrameState::kPcpCache, 0);
  list.frames.push_back(addr);
  LockedOp op;
  op.work = costs_.smp_pcp_op;
  if (list.frames.size() > config_.pcp_high) {
    const LockedOp drained = drain_list(mem, zone, list, now + op.work, config_.pcp_batch);
    op.wait += drained.wait;
    op.work += drained.work;
  }
  return op;
}

LockedOp SmpDomain::free_block(MemorySystem& mem, ZoneId zone, std::int32_t core, Addr addr,
                               unsigned order, Cycles now) {
  const unsigned merges = mem.free_pages(zone, addr, order);
  const Cycles hold =
      costs_.smp_lock_acquire + costs_.buddy_base + merges * costs_.buddy_merge_step;
  const Cycles wait = zone_locks_[zone].acquire(now, hold);
  stats_.zone_lock_wait += wait;
  trace_wait("lock.zone", now, wait, hold, 0, core);
  return LockedOp{wait, hold};
}

LockedOp SmpDomain::drain_list(MemorySystem& mem, ZoneId zone, PcpList& list, Cycles now,
                               std::size_t down_to) {
  if (list.frames.size() <= down_to) {
    return {};
  }
  ++stats_.pcp_drains;
  hw::MemMap& map = mem.buddy(zone).mem_map();
  Cycles hold = costs_.smp_lock_acquire;
  const std::size_t spill = list.frames.size() - down_to;
  // Coldest frames (front of the LIFO) go back to the buddy.
  for (std::size_t i = 0; i < spill; ++i) {
    const Addr addr = list.frames[i];
    map.clear_head(map.index_of(addr));
    const unsigned merges = mem.free_pages(zone, addr, 0);
    hold += costs_.buddy_base + merges * costs_.buddy_merge_step + costs_.smp_pcp_move_frame;
  }
  list.frames.erase(list.frames.begin(),
                    list.frames.begin() + static_cast<std::ptrdiff_t>(spill));
  const Cycles wait = zone_locks_[zone].acquire(now, hold);
  stats_.zone_lock_wait += wait;
  trace_wait("lock.zone", now, wait, hold, 0, -1);
  return LockedOp{wait, hold};
}

Cycles SmpDomain::ipi_round(std::int32_t core, std::uint64_t pages, Cycles now) {
  ++stats_.shootdown_ipis;
  stats_.shootdown_pages += pages;
  // Remote CPUs stall to service the interrupt; their backlog extends
  // past `now` so their next fault entry (cpu_drain) eats the stall.
  for (std::uint32_t c = 0; c < config_.cores; ++c) {
    if (static_cast<std::int32_t>(c) == core) {
      continue;
    }
    cpu_stall_[c] = std::max(cpu_stall_[c], now) + costs_.tlb_ipi_handler;
  }
  const std::uint64_t invalidations = std::min<std::uint64_t>(pages, 33);
  const Cycles cost = costs_.tlb_ipi_send +
                      static_cast<Cycles>(config_.cores - 1) * costs_.tlb_ipi_per_core +
                      (invalidations > 32 ? costs_.tlb_flush_full
                                          : invalidations * costs_.tlb_flush_page);
  if (trace::on(trace::Category::kLock)) {
    trace::complete(trace::Category::kLock, "smp.shootdown", now, cost, 0, core,
                    {trace::Arg::u64("pages", pages),
                     trace::Arg::u64("targets", config_.cores - 1)});
    ++trace::metrics().counter("smp.shootdown.rounds");
  }
  return cost;
}

Cycles SmpDomain::note_unmap(Pid pid, std::uint64_t pages, std::int32_t core, Cycles now) {
  if (pages == 0) {
    return 0;
  }
  if (!config_.batched_shootdowns) {
    // Pre-mmu_gather kernel: flush_tlb_page IPIs every other core once
    // per unmapped PTE. Modeled as `pages` back-to-back one-page rounds
    // folded into a single O(cores) pass so the event count stays flat.
    stats_.shootdown_ipis += pages;
    stats_.shootdown_pages += pages;
    for (std::uint32_t c = 0; c < config_.cores; ++c) {
      if (static_cast<std::int32_t>(c) == core) {
        continue;
      }
      cpu_stall_[c] = std::max(cpu_stall_[c], now) + pages * costs_.tlb_ipi_handler;
    }
    const Cycles per_round = costs_.tlb_ipi_send +
                             static_cast<Cycles>(config_.cores - 1) * costs_.tlb_ipi_per_core +
                             costs_.tlb_flush_page;
    const Cycles cost = pages * per_round;
    if (trace::on(trace::Category::kLock)) {
      trace::complete(trace::Category::kLock, "smp.shootdown", now, cost, pid, core,
                      {trace::Arg::u64("pages", pages),
                       trace::Arg::u64("rounds", pages)});
      trace::metrics().counter("smp.shootdown.rounds") += pages;
    }
    return cost;
  }
  MmState& m = mm(pid);
  m.pending_shootdown_pages += pages;
  Cycles cost = 0;
  while (m.pending_shootdown_pages >= config_.shootdown_batch) {
    m.pending_shootdown_pages -= config_.shootdown_batch;
    cost += ipi_round(core, config_.shootdown_batch, now + cost);
  }
  return cost;
}

Cycles SmpDomain::flush_shootdowns(Pid pid, std::int32_t core, Cycles now) {
  MmState& m = mm(pid);
  if (m.pending_shootdown_pages == 0) {
    return 0;
  }
  const std::uint64_t pages = m.pending_shootdown_pages;
  m.pending_shootdown_pages = 0;
  return ipi_round(core, pages, now);
}

std::uint64_t SmpDomain::pcp_cached_bytes(ZoneId zone) const {
  std::uint64_t frames = 0;
  for (std::uint32_t cpu = 0; cpu < config_.cores; ++cpu) {
    frames += pcp_[pcp_index(cpu, zone)].frames.size();
  }
  return frames * kSmallPageSize;
}

void SmpDomain::corrupt_clone_pcp_frame(std::uint32_t from_cpu, std::uint32_t to_cpu,
                                        ZoneId zone) {
  PcpList& from = pcp_[pcp_index(from_cpu, zone)];
  HPMMAP_ASSERT(!from.frames.empty(), "no cached frame to clone");
  pcp_[pcp_index(to_cpu, zone)].frames.push_back(from.frames.back());
}

} // namespace hpmmap::mm
