#include "os/node.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "trace/trace.hpp"

namespace hpmmap::os {
namespace {

/// Default segment sizes every process gets at exec (text, data/BSS,
/// stack reserve). Small next to the app's data, but the source of the
/// residual small faults even HPMMAP processes take.
constexpr std::uint64_t kTextBytes = 8 * MiB;
constexpr std::uint64_t kDataBytes = 16 * MiB;

} // namespace

Node::Node(sim::Engine& engine, NodeConfig config)
    : engine_(engine),
      config_(std::move(config)),
      phys_(config_.machine.ram_bytes, config_.machine.numa_zones),
      bw_(config_.machine.numa_zones, config_.machine.zone_bandwidth_bytes_per_cycle),
      tlb_(config_.machine.tlb),
      scheduler_(config_.machine.total_cores()),
      rng_(Rng(config_.seed).fork(config_.name)) {
  // Boot order matters: the module's hot-remove must precede zone
  // freelist construction, and the hugetlb reservation must run on
  // pristine zones.
  if (config_.hpmmap.has_value()) {
    module_ = std::make_unique<core::HpmmapModule>(phys_, bw_, config_.costs,
                                                   rng_.fork("hpmmap"), *config_.hpmmap);
  }
  memory_ = std::make_unique<mm::MemorySystem>(phys_, bw_, rng_.fork("mm"), config_.costs);
  if (config_.thp_enabled) {
    thp_ = std::make_unique<mm::ThpService>(*memory_, engine_,
                                            [this] { return scheduler_.oversubscription(); });
    thp_->start_khugepaged(config_.machine.clock_hz);
  }
  if (config_.hugetlb_pool_per_zone > 0) {
    hugetlb_ = std::make_unique<mm::HugetlbPool>(*memory_, config_.hugetlb_pool_per_zone);
  }
  fault_handler_ = std::make_unique<mm::FaultHandler>(*memory_, thp_.get(), hugetlb_.get());
  if (config_.smp.has_value()) {
    smp_ = std::make_unique<mm::SmpDomain>(*config_.smp, config_.costs, memory_->zone_count());
    fault_handler_->attach_smp(smp_.get());
  }
  if (config_.aged_boot) {
    age_system();
  }
  schedule_kswapd();
}

void Node::age_system() {
  // Reproduce the memory state of a machine with uptime: unmovable slab
  // allocations scattered through each zone (fragmenting the freelists)
  // and a page cache holding most of what is left. The scatter pattern —
  // allocate a large population of mixed-order blocks, then free most of
  // it — is how real fragmentation forms: frees coalesce only where
  // neighbours also freed.
  Rng aging = rng_.fork("aging");
  for (ZoneId z = 0; z < memory_->zone_count(); ++z) {
    mm::BuddyAllocator& buddy = memory_->buddy(z);
    const std::uint64_t online = buddy.total_bytes();
    const auto slab_target =
        static_cast<std::uint64_t>(config_.boot_slab_fraction * static_cast<double>(online));

    std::vector<std::pair<Addr, unsigned>> churn;
    std::uint64_t slab_held = 0;
    // Allocate ~4x the slab target in mixed small orders...
    while (slab_held < 4 * slab_target) {
      const unsigned order = static_cast<unsigned>(aging.uniform(5)); // 0..4
      auto a = buddy.alloc(order);
      if (!a.has_value()) {
        break;
      }
      churn.push_back({a->addr, order});
      slab_held += mm::BuddyAllocator::order_bytes(order);
    }
    // ...then release three quarters at random. What stays allocated is
    // the resident slab; the holes it leaves are the fragmentation.
    for (const auto& [addr, order] : churn) {
      if (aging.chance(0.75)) {
        buddy.free(addr, order);
      }
    }
    // Fill the page cache with a realistic mixed-order population.
    const auto cache_target =
        static_cast<std::uint64_t>(config_.boot_cache_fraction * static_cast<double>(online));
    mm::PageCache& cache = memory_->cache(z);
    cache.set_dirty_fraction(0.2);
    std::uint64_t cached = 0;
    while (cached < cache_target) {
      const unsigned order = 2 + static_cast<unsigned>(aging.uniform(5)); // 2..6
      const std::uint64_t want = std::min<std::uint64_t>(
          cache_target - cached, mm::BuddyAllocator::order_bytes(order));
      const std::uint64_t got = cache.grow(want, order, /*dirty=*/false);
      if (got == 0) {
        break;
      }
      cached += got;
    }
  }
}

Node::~Node() {
  if (thp_ != nullptr) {
    thp_->stop_khugepaged();
  }
  engine_.cancel(kswapd_event_);
  // Unregister any survivors so the module's unload invariants hold.
  for (auto& proc : processes_) {
    if (proc->alive()) {
      exit_process(*proc);
    }
  }
}

void Node::schedule_kswapd() {
  // kswapd wakes every ~4 ms and rebalances zones toward their high
  // watermark, off the critical path.
  const auto period = static_cast<Cycles>(config_.machine.clock_hz * 0.004);
  kswapd_event_ = engine_.schedule(period, [this] { kswapd_tick(); });
}

void Node::kswapd_tick() {
  for (ZoneId z = 0; z < memory_->zone_count(); ++z) {
    memory_->kswapd_balance(z);
  }
  schedule_kswapd();
}

Process& Node::spawn(std::string proc_name, MmPolicy policy, std::int32_t core, double duty,
                     mm::AddressSpace::ZonePolicy zone_policy, ZoneId home_zone) {
  const Pid pid = next_pid_++;
  processes_.push_back(std::make_unique<Process>(pid, std::move(proc_name), policy));
  Process& proc = *processes_.back();
  proc.set_core(core);
  proc.set_sched_handle(scheduler_.add_thread(core, duty));
  mm::AddressSpace& as = proc.address_space();
  as.set_zone_policy(zone_policy, home_zone, config_.machine.numa_zones);

  // exec() layout: text, data/BSS, heap base after data, stack reserve.
  mm::Vma text;
  text.range = Range{mm::AddressLayout::kTextBase, mm::AddressLayout::kTextBase + kTextBytes};
  text.prot = kProtRX;
  text.kind = mm::VmaKind::kText;
  HPMMAP_ASSERT(as.vmas().insert(text) == Errno::kOk, "fresh AS cannot collide");

  mm::Vma data;
  data.range = Range{text.range.end, text.range.end + kDataBytes};
  data.prot = kProtRW;
  data.kind = mm::VmaKind::kData;
  HPMMAP_ASSERT(as.vmas().insert(data) == Errno::kOk, "fresh AS cannot collide");
  as.set_heap_base(data.range.end);

  mm::Vma stack;
  stack.range = Range{mm::AddressLayout::kStackTop - mm::AddressLayout::kStackMax,
                      mm::AddressLayout::kStackTop};
  stack.prot = kProtRW;
  stack.kind = mm::VmaKind::kStack;
  HPMMAP_ASSERT(as.vmas().insert(stack) == Errno::kOk, "fresh AS cannot collide");

  if (policy == MmPolicy::kHpmmap) {
    HPMMAP_ASSERT(module_ != nullptr, "HPMMAP policy on a node without the module");
    const Errno err = module_->register_process(pid, as);
    HPMMAP_ASSERT(err == Errno::kOk, "PID registration failed");
  }
  if (thp_ != nullptr &&
      (policy == MmPolicy::kLinuxThp || policy == MmPolicy::kLinuxPlain)) {
    thp_->register_process(&as);
  }
  trace::instant(trace::Category::kApp, "proc.spawn", pid, core);
  return proc;
}

void Node::exit_process(Process& proc) {
  HPMMAP_ASSERT(proc.alive(), "double exit");
  if (thp_ != nullptr) {
    thp_->unregister_process(&proc.address_space());
  }
  if (module_ != nullptr && module_->handles(proc.pid())) {
    module_->unregister_process(proc.pid());
  }
  // Release all Linux-managed memory VMA by VMA (everything in the
  // HPMMAP window was already dropped by the module above).
  std::vector<Range> ranges;
  proc.address_space().vmas().for_each(
      [&](const mm::Vma& vma) { ranges.push_back(vma.range); });
  for (const Range& r : ranges) {
    release_linux_range(proc, r, proc.core());
    proc.address_space().vmas().remove(r);
  }
  if (smp_ != nullptr) {
    // exit_mmap: the last deferred shootdown round fires, then the mm's
    // lock state (and pending counter) disappears with the mm itself.
    smp_->flush_shootdowns(proc.pid(), proc.core(), engine_.now());
    smp_->drop_mm(proc.pid());
  }
  scheduler_.remove_thread(proc.sched_handle());
  proc.mark_dead();
  trace::instant(trace::Category::kApp, "proc.exit", proc.pid(), proc.core());
}

bool Node::is_hpmmap_call(const Process& proc, Cycles& hash_cost) const {
  if (module_ == nullptr) {
    return false;
  }
  // Every syscall pays the PID-hash probe once the module is loaded
  // (Figure 6); a miss falls through to the original handler.
  hash_cost += config_.costs.hpmmap_hash_lookup;
  return module_->handles(proc.pid());
}

Node::SysOut Node::sys_mmap(Process& proc, std::uint64_t len, Prot prot, Segment seg,
                            std::int32_t core) {
  Cycles hash_cost = 0;
  if (is_hpmmap_call(proc, hash_cost) && seg != Segment::kStack) {
    const core::SyscallResult r = module_->mmap(proc.pid(), len, prot);
    return SysOut{r.err, r.addr, r.cost + hash_cost};
  }
  SysOut out = linux_mmap(proc, len, prot, seg, core);
  out.cost += hash_cost;
  return out;
}

Node::SysOut Node::linux_mmap(Process& proc, std::uint64_t len, Prot prot, Segment seg,
                              std::int32_t core) {
  SysOut out;
  const mm::CostModel& costs = config_.costs;
  out.cost = costs.syscall_entry + costs.vma_mutate;
  if (len == 0) {
    out.err = Errno::kInval;
    return out;
  }
  mm::AddressSpace& as = proc.address_space();
  // mmap writers queue behind a merge holding the lock too.
  out.cost += as.lock_wait(engine_.now());
  if (smp_ != nullptr) {
    // mmap_sem writer: waits out every in-flight reader (faulting cores)
    // and holds through the VMA mutation, stalling them in turn.
    out.cost += smp_->mmap_sem_write(proc.pid(), engine_.now(), costs.vma_mutate,
                                     core >= 0 ? core : proc.core());
  }

  mm::Vma vma;
  bool hugetlb_backed = proc.policy() == MmPolicy::kHugetlbfs &&
                        seg == Segment::kHeapData && hugetlb_ != nullptr;
  if (hugetlb_backed && rng_.chance(config_.hugetlbfs_small_spill)) {
    hugetlb_backed = false; // libhugetlbfs fallback: ordinary 4K anon
  }
  const std::uint64_t alignment = hugetlb_backed ? kLargePageSize : kSmallPageSize;
  const std::uint64_t alen = align_up(len, alignment);
  const auto addr = as.vmas().find_free_topdown(
      alen, alignment, Range{mm::AddressLayout::kMmapBottom, mm::AddressLayout::kMmapTop});
  if (!addr.has_value()) {
    out.err = Errno::kNoMem;
    return out;
  }
  vma.range = Range{*addr, *addr + alen};
  vma.prot = prot;
  if (hugetlb_backed) {
    vma.kind = mm::VmaKind::kHugetlb;
    vma.hugetlb_size = PageSize::k2M;
  } else {
    vma.kind = seg == Segment::kStack ? mm::VmaKind::kStack : mm::VmaKind::kAnon;
    vma.thp_eligible = config_.thp_enabled && proc.policy() == MmPolicy::kLinuxThp &&
                       seg != Segment::kStack && alen >= kLargePageSize;
  }
  const Errno err = as.vmas().insert(vma);
  HPMMAP_ASSERT(err == Errno::kOk, "find_free_topdown returned an occupied range");
  out.addr = *addr;
  return out;
}

Node::SysOut Node::sys_brk(Process& proc, Addr new_break) {
  Cycles hash_cost = 0;
  if (is_hpmmap_call(proc, hash_cost)) {
    const core::SyscallResult r = module_->brk(proc.pid(), new_break);
    return SysOut{r.err, r.addr, r.cost + hash_cost};
  }
  SysOut out = linux_brk(proc, new_break);
  out.cost += hash_cost;
  return out;
}

Node::SysOut Node::linux_brk(Process& proc, Addr new_break) {
  SysOut out;
  const mm::CostModel& costs = config_.costs;
  out.cost = costs.syscall_entry;
  mm::AddressSpace& as = proc.address_space();
  if (new_break == 0) {
    out.addr = as.heap_end();
    return out;
  }
  if (new_break < as.heap_base()) {
    out.err = Errno::kInval;
    out.addr = as.heap_end();
    return out;
  }
  out.cost += as.lock_wait(engine_.now()) + costs.vma_mutate;
  if (smp_ != nullptr) {
    out.cost += smp_->mmap_sem_write(proc.pid(), engine_.now(), costs.vma_mutate, proc.core());
  }

  const bool hugetlb_backed = proc.policy() == MmPolicy::kHugetlbfs && hugetlb_ != nullptr;
  const std::uint64_t alignment = hugetlb_backed ? kLargePageSize : kSmallPageSize;
  const Addr old_top = align_up(as.heap_end(), alignment);
  const Addr new_top = align_up(new_break, alignment);
  if (new_top > old_top) {
    mm::Vma vma;
    vma.range = Range{old_top, new_top};
    vma.prot = kProtRW;
    if (hugetlb_backed) {
      vma.kind = mm::VmaKind::kHugetlb;
      vma.hugetlb_size = PageSize::k2M;
    } else {
      vma.kind = mm::VmaKind::kHeap;
      vma.thp_eligible = config_.thp_enabled && proc.policy() == MmPolicy::kLinuxThp;
    }
    const Errno err = as.vmas().insert(vma);
    if (err != Errno::kOk) {
      out.err = Errno::kNoMem;
      out.addr = as.heap_end();
      return out;
    }
  } else if (new_top < old_top) {
    out.cost += release_linux_range(proc, Range{new_top, old_top});
    as.vmas().remove(Range{new_top, old_top});
  }
  as.set_heap_end(new_break);
  out.addr = new_break;
  return out;
}

Node::SysOut Node::sys_munmap(Process& proc, Addr addr, std::uint64_t len, std::int32_t core) {
  Cycles hash_cost = 0;
  if (is_hpmmap_call(proc, hash_cost) && core::HpmmapModule::in_window(addr)) {
    const core::SyscallResult r = module_->munmap(proc.pid(), addr, len);
    return SysOut{r.err, r.addr, r.cost + hash_cost};
  }
  SysOut out;
  const mm::CostModel& costs = config_.costs;
  mm::AddressSpace& as = proc.address_space();
  const std::int32_t c = core >= 0 ? core : proc.core();
  out.cost = hash_cost + costs.syscall_entry + costs.vma_mutate +
             as.lock_wait(engine_.now());
  const Range range{align_down(addr, kSmallPageSize), align_up(addr + len, kSmallPageSize)};
  const Cycles release = release_linux_range(proc, range, c);
  if (smp_ != nullptr) {
    // The munmap writer holds mmap_sem across the VMA removal and the
    // page-table teardown — the whole reason threaded mmap churn scales
    // so poorly on stock Linux (§II-A).
    out.cost += smp_->mmap_sem_write(proc.pid(), engine_.now(), costs.vma_mutate + release, c);
  }
  out.cost += release;
  as.vmas().remove(range);
  return out;
}

Node::SysOut Node::sys_mprotect(Process& proc, Addr addr, std::uint64_t len, Prot prot) {
  Cycles hash_cost = 0;
  if (is_hpmmap_call(proc, hash_cost) && core::HpmmapModule::in_window(addr)) {
    const core::SyscallResult r = module_->mprotect(proc.pid(), addr, len, prot);
    return SysOut{r.err, r.addr, r.cost + hash_cost};
  }
  SysOut out;
  const mm::CostModel& costs = config_.costs;
  mm::AddressSpace& as = proc.address_space();
  out.cost = hash_cost + costs.syscall_entry + costs.vma_mutate +
             as.lock_wait(engine_.now());
  const Range range{align_down(addr, kSmallPageSize), align_up(addr + len, kSmallPageSize)};
  const Errno err = as.vmas().protect(range, prot);
  if (err != Errno::kOk) {
    out.err = err;
    return out;
  }
  // Update any installed leaves and pay the shootdown.
  for (Addr va = range.begin; va < range.end;) {
    const auto t = as.page_table().walk(va);
    if (t.has_value()) {
      const Addr leaf_base = align_down(va, bytes(t->size));
      as.page_table().protect(leaf_base, t->size, prot);
      out.cost += costs.pte_install;
      va = leaf_base + bytes(t->size);
    } else {
      va += kSmallPageSize;
    }
  }
  out.cost += costs.tlb_flush_full;
  return out;
}

Node::SysOut Node::sys_mlock(Process& proc, Addr addr, std::uint64_t len) {
  SysOut out;
  const mm::CostModel& costs = config_.costs;
  mm::AddressSpace& as = proc.address_space();
  out.cost = costs.syscall_entry + costs.vma_mutate + as.lock_wait(engine_.now());
  const Range range{align_down(addr, kSmallPageSize), align_up(addr + len, kSmallPageSize)};
  // Populate first (mlock guarantees residency), then split any large
  // pages (THP cannot pin compound pages, §II-B), then mark locked.
  out.cost += touch_range(proc, range);
  if (thp_ != nullptr) {
    const unsigned splits = thp_->split_for_mlock(as, range);
    // Each split rewrites a PT page worth of PTEs (512), batched ~8 wide.
    out.cost += splits * (costs.pt_alloc_table + 512 * costs.pte_install / 8);
  }
  std::vector<mm::Vma> pieces = as.vmas().remove(range);
  for (mm::Vma& piece : pieces) {
    piece.locked = true;
    piece.thp_eligible = false;
    HPMMAP_ASSERT(as.vmas().insert(piece) == Errno::kOk, "reinsert cannot overlap");
  }
  return out;
}

Cycles Node::release_linux_range(Process& proc, Range range, std::int32_t core) {
  mm::AddressSpace& as = proc.address_space();
  const mm::CostModel& costs = config_.costs;
  // Acquire stamps ride engine_.now() + own work only (never + waits),
  // so a teardown delayed by contention can't push its later acquires
  // into the future and charge other cores phantom wait (see the
  // stamping discipline in linux_mm/smp.hpp).
  Cycles work = 0;
  Cycles wait = 0;
  const bool pcp_frees = smp_ != nullptr && smp_->config().pcp;

  // Collect leaves, batching physically contiguous 4K frames into
  // higher-order frees (demand-faulted pages are frequently contiguous
  // thanks to the buddy's address-ordered pops).
  struct Run {
    Addr phys_begin = 0;
    Addr phys_end = 0;
    ZoneId zone = 0;
    bool active = false;
  };
  Run run;
  std::uint64_t leaves = 0;

  const auto flush_run = [&] {
    if (!run.active) {
      return;
    }
    if (pcp_frees) {
      // free_unref_page: order-0 frames recycle through this CPU's pcp
      // list (no coalescing — the refill path hands them straight back
      // to the next faulting thread on this CPU).
      for (Addr p = run.phys_begin; p < run.phys_end; p += kSmallPageSize) {
        const mm::LockedOp op =
            smp_->free_small(*memory_, run.zone, core, p, engine_.now() + work);
        wait += op.wait;
        work += op.work;
      }
      run.active = false;
      return;
    }
    Addr p = run.phys_begin;
    while (p < run.phys_end) {
      // Largest order that is aligned at p and fits.
      unsigned order = 0;
      while (order < mm::kLinuxMaxOrder &&
             is_aligned(p, mm::BuddyAllocator::order_bytes(order + 1)) &&
             p + mm::BuddyAllocator::order_bytes(order + 1) <= run.phys_end) {
        ++order;
      }
      if (smp_ != nullptr) {
        const mm::LockedOp op =
            smp_->free_block(*memory_, run.zone, core, p, order, engine_.now() + work);
        wait += op.wait;
        work += op.work;
      } else {
        memory_->free_pages(run.zone, p, order);
      }
      p += mm::BuddyAllocator::order_bytes(order);
    }
    run.active = false;
  };

  Addr va = range.begin;
  // Walk mapped leaves; skip unmapped space at the page-table's natural
  // stride to stay O(mapped + gaps/2M).
  while (va < range.end) {
    const auto t = as.page_table().walk(va);
    if (!t.has_value()) {
      // Skip to the next 2M boundary if the whole PT is empty there.
      const Addr next2m = align_down(va, kLargePageSize) + kLargePageSize;
      if (as.page_table().small_count_in_2m(va) == 0) {
        va = next2m;
      } else {
        va += kSmallPageSize;
      }
      continue;
    }
    const Addr leaf_base = align_down(va, bytes(t->size));
    const Addr frame = align_down(t->phys, bytes(t->size));
    as.page_table().unmap(leaf_base, t->size);
    ++leaves;
    work += costs.pte_install;

    const ZoneId zone = phys_.zone_of(frame);
    if (t->size == PageSize::k4K && !phys_.is_offline(frame)) {
      if (run.active && frame == run.phys_end && zone == run.zone) {
        run.phys_end += kSmallPageSize;
      } else {
        flush_run();
        run = Run{frame, frame + kSmallPageSize, zone, true};
      }
    } else {
      flush_run();
      if (t->size == PageSize::k2M && as.vmas().find(leaf_base) != nullptr &&
          as.vmas().find(leaf_base)->kind == mm::VmaKind::kHugetlb && hugetlb_ != nullptr) {
        hugetlb_->free_page(zone, frame);
      } else if (!phys_.is_offline(frame)) {
        const unsigned order = mm::BuddyAllocator::order_for_bytes(bytes(t->size));
        if (smp_ != nullptr) {
          const mm::LockedOp op =
              smp_->free_block(*memory_, zone, core, frame, order, engine_.now() + work);
          wait += op.wait;
          work += op.work;
        } else {
          memory_->free_pages(zone, frame, order);
        }
      }
      // Offlined frames belong to the module; it frees them itself.
    }
    va = leaf_base + bytes(t->size);
  }
  flush_run();
  // The unmapping core always flushes its own TLB; remote cores get IPI
  // rounds — deferred and batched, or one round per munmap (Linux-1999).
  work += leaves > 32 ? costs.tlb_flush_full : leaves * costs.tlb_flush_page;
  if (smp_ != nullptr && leaves > 0) {
    work += smp_->note_unmap(proc.pid(), leaves, core, engine_.now() + work);
  }
  return work + wait;
}

Cycles Node::touch_range(Process& proc, Range range, std::int32_t core) {
  Cycles cost = 0;
  Cycles work = 0; // SMP acquire-stamp clock: cost minus suffered waits
  mm::AddressSpace& as = proc.address_space();
  const std::int32_t c = core >= 0 ? core : proc.core();
  const bool is_hpmmap_addr =
      module_ != nullptr && module_->handles(proc.pid()) && core::HpmmapModule::in_window(range.begin);
  // Charge the fault at `va` to the process and remember a new 4K page
  // on the anon LRU; returns the next address to touch.
  const auto account = [&](Addr va, const mm::FaultResult& fr) -> Addr {
    proc.record_fault(engine_.now() + cost, fr.kind, fr.cost);
    cost += fr.cost;
    if (fr.err == Errno::kOk && fr.used == PageSize::k4K && !is_hpmmap_addr) {
      anon_lru_.push(proc.pid(), align_down(va, kSmallPageSize));
      if (fr.entered_reclaim) {
        maybe_swap(as.zone_for(va));
      }
    }
    if (fr.err != Errno::kOk) {
      HPMMAP_LOG_WARN_LIMITED(fault_warn_limiter_, "node", "fault failed at %llx for pid %u: %s",
                              static_cast<unsigned long long>(va), proc.pid(),
                              name(fr.err).data());
      return va + kSmallPageSize; // skip; workload generators treat it as lost work
    }
    return align_down(va, bytes(fr.used)) + bytes(fr.used);
  };
  Addr va = align_down(range.begin, kSmallPageSize);
  while (va < range.end) {
    const auto t = as.page_table().walk(va);
    if (t.has_value()) {
      va = align_down(va, bytes(t->size)) + bytes(t->size);
      continue;
    }
    if (is_hpmmap_addr) {
      va = account(va, module_->fault(proc.pid(), va, engine_.now() + cost, c));
    } else if (smp_ != nullptr && c >= 0) {
      // The fault path runs under mmap_sem for reading: wait out any
      // mmap/munmap writer, handle the fault, then release at the
      // handler's exit so a writer arriving meanwhile queues behind us.
      // Acquires are stamped at engine time plus this slice's *work*
      // only — folding suffered waits into the stamp would let diverged
      // worker timelines charge each other compounding phantom wait
      // (stamping discipline, linux_mm/smp.hpp).
      const Cycles t0 = engine_.now() + work;
      const Cycles sem_wait = smp_->mmap_sem_read_enter(proc.pid(), t0, c);
      mm::FaultResult fr = fault_handler_->handle(as, va, t0, c);
      fr.lock_wait += sem_wait;
      fr.cost += sem_wait;
      smp_->mmap_sem_read_exit(proc.pid(), engine_.now() + cost + fr.cost);
      work += fr.cost - fr.lock_wait;
      va = account(va, fr);
    } else {
      // Single-core faults go a run at a time: the unmapped pages up to
      // the next mapped one, inside one VMA and one 2 MiB region.
      mm::FaultRun run = fault_handler_->begin_run(as, va, range.end);
      do {
        const Addr page = run.next();
        const mm::FaultResult fr = fault_handler_->fault(run, as, engine_.now() + cost, c);
        va = account(page, fr);
      } while (!run.done());
    }
  }
  return cost;
}

Cycles Node::compute_burst(Process& proc, Cycles cpu_work, std::uint64_t mem_accesses,
                           double locality) {
  const hw::MappingMix mix = proc.address_space().mapping_mix();
  const ZoneId zone = proc.address_space().home_zone();
  // Bandwidth contention stretches the memory-bound share of the burst —
  // including the page walks, whose PTE fetches are DRAM accesses too.
  const double bw_factor = bw_.contention_factor(zone);
  const double translation = tlb_.translation_cycles_per_access(mix, locality) *
                             (1.0 + 0.6 * (bw_factor - 1.0));
  const double mem_stall = 1.8 * (bw_factor - 1.0); // extra cycles per access when saturated
  const double on_core = static_cast<double>(cpu_work) +
                         static_cast<double>(mem_accesses) * (translation + mem_stall);
  const double dilation = scheduler_.dilation(proc.core());
  double wall = on_core * dilation;
  // Scheduler noise: per-burst jitter, heavier when oversubscribed.
  const double over = scheduler_.oversubscription();
  const double cv = 0.01 + 0.03 * (over - 1.0);
  wall = rng_.lognormal_from_moments(wall, cv * wall);
  return static_cast<Cycles>(wall);
}

std::optional<Addr> Node::kernel_alloc(ZoneId zone, unsigned order) {
  const mm::AllocOutcome out = memory_->alloc_pages(zone, order, /*allow_reclaim=*/true);
  if (out.entered_reclaim) {
    maybe_swap(zone);
  }
  if (!out.ok) {
    return std::nullopt;
  }
  return out.addr;
}

Process* Node::find_process(Pid pid) const noexcept {
  const std::size_t i = pid - kFirstPid;
  if (pid < kFirstPid || i >= processes_.size() || processes_[i]->pid() != pid) {
    return nullptr;
  }
  return processes_[i].get();
}

void Node::maybe_swap(ZoneId zone) {
  // Swap only once the cache has nothing meaningful left to give — anon
  // eviction is the kernel's last resort.
  const std::uint64_t floor = memory_->cache(zone).free_floor();
  if (!memory_->below_low_watermark(zone) ||
      memory_->cache(zone).cached_bytes() > floor + floor / 2) {
    return;
  }
  unsigned evicted = 0;
  while (evicted < 128 && !anon_lru_.empty()) {
    const auto [pid, va] = anon_lru_.pop();
    Process* proc = find_process(pid);
    HPMMAP_ASSERT(proc != nullptr, "anon LRU names a pid this node never spawned");
    if (!proc->alive()) {
      continue;
    }
    mm::AddressSpace& as = proc->address_space();
    const mm::Vma* vma = as.vmas().find(va);
    if (vma == nullptr || vma->locked) {
      continue; // stale entry (munmapped) or pinned (mlock works!)
    }
    const auto t = as.page_table().walk(va);
    if (!t.has_value() || t->size != PageSize::k4K) {
      continue; // already gone or merged into a huge page
    }
    const Addr frame = align_down(t->phys, kSmallPageSize);
    if (phys_.is_offline(frame)) {
      continue; // HPMMAP memory: invisible to reclaim
    }
    as.page_table().unmap(va, PageSize::k4K);
    memory_->free_pages(phys_.zone_of(frame), frame, 0);
    as.mark_swapped(va);
    ++swapped_out_total_;
    ++evicted;
  }
  if (evicted > 0 && trace::on(trace::Category::kBuddy)) {
    trace::instant(trace::Category::kBuddy, "mm.swap_out", 0, -1,
                   {trace::Arg::u64("zone", zone), trace::Arg::u64("pages", evicted)});
  }
}

void Node::kernel_free(ZoneId zone, Addr addr, unsigned order) {
  memory_->free_pages(zone, addr, order);
}

} // namespace hpmmap::os
