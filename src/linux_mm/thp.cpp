#include "linux_mm/thp.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "verify/fault_inject.hpp"

namespace hpmmap::mm {

ThpService::ThpService(MemorySystem& memory, sim::Engine& engine,
                       std::function<double()> load_factor_probe)
    : memory_(memory), engine_(engine), load_factor_(std::move(load_factor_probe)) {
  HPMMAP_ASSERT(load_factor_ != nullptr, "load probe required");
}

void ThpService::register_process(AddressSpace* as) {
  HPMMAP_ASSERT(as != nullptr, "null address space");
  processes_.push_back(as);
}

void ThpService::unregister_process(AddressSpace* as) {
  std::erase(processes_, as);
  std::erase_if(enter_queue_, [as](const auto& e) { return e.first == as; });
  scan_rr_ = 0;
  scan_cursor_ = 0;
}

void ThpService::note_fallback(AddressSpace* as, Addr vaddr) {
  constexpr std::size_t kQueueCap = 32;
  const Addr region = align_down(vaddr, kLargePageSize);
  // Dedup against the most recent entries (fault storms hit the same
  // region hundreds of times, so the newest entry almost always matches
  // and the scan is skipped).
  if (!enter_queue_.empty() && enter_queue_.back() == std::pair{as, region}) {
    return;
  }
  for (const auto& [qas, qregion] : enter_queue_) {
    if (qas == as && qregion == region) {
      return;
    }
  }
  if (enter_queue_.size() >= kQueueCap) {
    enter_queue_.pop_front();
  }
  enter_queue_.emplace_back(as, region);
  // Wake the daemon if it has slept through a full period — the kernel's
  // fault path kicks khugepaged on allocation failures, which is exactly
  // why merges land *during* the application's fault bursts and stall
  // the faults that follow (Figure 4's blue dots).
  if (running_ && !wake_pending_.valid() && engine_.now() - last_scan_ >= scan_period_) {
    wake_pending_ = engine_.schedule(50'000, [this] { wake_tick(); });
  }
}

void ThpService::wake_tick() {
  wake_pending_ = sim::EventId{};
  scan_once();
}

bool ThpService::region_eligible(const AddressSpace& as, const Vma& vma, Addr vaddr) const {
  if (!vma.thp_eligible || vma.locked) {
    return false;
  }
  const Addr base = align_down(vaddr, kLargePageSize);
  const Range region{base, base + kLargePageSize};
  // The VMA must cover the whole aligned region — the address-space
  // organization problem from §II-A: unaligned or undersized VMAs force
  // small pages.
  if (!vma.range.contains(region)) {
    return false;
  }
  // No part of the region may already be mapped (the fault path never
  // overwrites existing PTEs; khugepaged handles those later).
  if (as.page_table().small_count_in_2m(base) != 0 || as.page_table().large_leaf_at(base)) {
    return false;
  }
  return true;
}

ThpService::HugeFaultResult ThpService::try_fault_huge(AddressSpace& as, const Vma& vma,
                                                       Addr vaddr) {
  HugeFaultResult result;
  if (!region_eligible(as, vma, vaddr)) {
    ++stats_.fault_huge_fallback;
    return result;
  }
  // Injected huge-allocation failure: eligibility passed but the order-9
  // block "fails" — exactly the fault-path fallback the caller must
  // absorb by mapping 4K and queueing the region for khugepaged.
  if (verify::injector().should_fail(verify::InjectPoint::kThpHugeAlloc)) {
    ++stats_.fault_huge_fallback;
    return result;
  }
  // Fault-path huge allocation is opportunistic: it takes an order-9
  // block only when the zone can hand one over without reclaim (the
  // 2.6.38-3.3 era behaviour the paper evaluates). Failures register the
  // region with khugepaged instead.
  const ZoneId zone = as.zone_for(align_down(vaddr, kLargePageSize));
  result.alloc = memory_.alloc_pages(zone, kLargePageOrder, /*allow_reclaim=*/false);
  if (!result.alloc.ok) {
    ++stats_.fault_huge_fallback;
    return result;
  }
  result.ok = true;
  result.phys = result.alloc.addr;
  ++stats_.fault_huge_success;
  return result;
}

void ThpService::start_khugepaged(double clock_hz) {
  scan_period_ = static_cast<Cycles>(
      clock_hz * static_cast<double>(memory_.costs().khugepaged_scan_period_ms) / 1000.0);
  running_ = true;
  schedule_next_scan();
}

void ThpService::stop_khugepaged() {
  running_ = false;
  engine_.cancel(pending_scan_);
  pending_scan_ = sim::EventId{};
  engine_.cancel(wake_pending_);
  wake_pending_ = sim::EventId{};
}

void ThpService::schedule_next_scan() {
  if (!running_) {
    return;
  }
  // Jitter the period slightly so merges are unsynchronized across
  // ranks/nodes — the OS-noise property §II-B calls out.
  const Cycles jitter = memory_.rng().uniform(scan_period_ / 4);
  pending_scan_ = engine_.schedule(scan_period_ + jitter, [this] { scan_tick(); });
}

void ThpService::scan_tick() {
  scan_once();
  schedule_next_scan();
}

std::optional<ThpService::MergeCandidate> ThpService::find_candidate() {
  if (processes_.empty()) {
    return std::nullopt;
  }
  // khugepaged_enter queue first: regions where the fault path recently
  // fell back are revisited before any background scanning.
  while (!enter_queue_.empty()) {
    auto [as, region] = enter_queue_.front();
    enter_queue_.pop_front();
    if (std::find(processes_.begin(), processes_.end(), as) == processes_.end()) {
      continue;
    }
    const Vma* vma = as->vmas().find(region);
    if (vma == nullptr || !vma->thp_eligible || vma->locked ||
        !vma->range.contains(Range{region, region + kLargePageSize})) {
      continue;
    }
    ++stats_.merge_candidates_scanned;
    const unsigned mapped = as->page_table().small_count_in_2m(region);
    if (mapped >= 64 && !as->page_table().large_leaf_at(region) &&
        !inflight_.contains({as, region})) {
      return MergeCandidate{as, region, mapped};
    }
  }
  // khugepaged_max_ptes_none defaults to 511, i.e. even a single mapped
  // small page makes a region collapsible; we require a quarter mapped
  // so merges hit regions the app actually uses.
  constexpr unsigned kMinMapped = 128;
  for (std::size_t attempt = 0; attempt < processes_.size(); ++attempt) {
    AddressSpace* as = processes_[(scan_rr_ + attempt) % processes_.size()];
    std::optional<MergeCandidate> found;
    Addr resume = (attempt == 0) ? scan_cursor_ : 0;
    as->vmas().for_each([&](const Vma& vma) {
      if (found.has_value() || !vma.thp_eligible || vma.locked) {
        return;
      }
      const Addr first = std::max(align_up(vma.range.begin, kLargePageSize), resume);
      for (Addr region = first; region + kLargePageSize <= vma.range.end;
           region += kLargePageSize) {
        ++stats_.merge_candidates_scanned;
        const unsigned mapped = as->page_table().small_count_in_2m(region);
        if (mapped >= kMinMapped && !as->page_table().large_leaf_at(region) &&
            !inflight_.contains({as, region})) {
          found = MergeCandidate{as, region, mapped};
          return;
        }
        if (stats_.merge_candidates_scanned % 4096 == 0) {
          return; // bound per-scan work like the real daemon's scan quota
        }
      }
    });
    if (found.has_value()) {
      scan_rr_ = (scan_rr_ + attempt) % processes_.size();
      scan_cursor_ = found->region + kLargePageSize;
      return found;
    }
    scan_cursor_ = 0;
  }
  scan_rr_ = (scan_rr_ + 1) % std::max<std::size_t>(processes_.size(), 1);
  return std::nullopt;
}

void ThpService::scan_once() {
  last_scan_ = engine_.now();
  if (trace::on(trace::Category::kThp)) {
    trace::instant(trace::Category::kThp, "khugepaged.scan", 0, -1,
                   {trace::Arg::u64("enter_queue", enter_queue_.size()),
                    trace::Arg::u64("processes", processes_.size())});
    ++trace::metrics().counter("khugepaged.scans");
  }
  // The daemon collapses a couple of regions per wakeup (its scan
  // quota). Before each collapse it linearly scans thousands of PTEs —
  // several milliseconds of work — so the lock acquisition lands at an
  // arbitrary phase of the application's fault activity rather than
  // immediately after the fault that woke it.
  const double clock_ms = static_cast<double>(scan_period_) /
                          static_cast<double>(memory_.costs().khugepaged_scan_period_ms);
  Cycles scan_progress = 0;
  for (int i = 0; i < 2; ++i) {
    auto candidate = find_candidate();
    if (!candidate.has_value()) {
      return;
    }
    scan_progress += static_cast<Cycles>(
        clock_ms * (1.0 + memory_.rng().uniform_double() * 8.0));
    const MergeCandidate c = *candidate;
    const std::uint64_t token = next_token_++;
    const sim::EventId ev =
        engine_.schedule(scan_progress, [this, token] { collapse_tick(token); });
    pending_collapses_.push_back({token, c.as, c.region, c.mapped_small, ev});
  }
}

void ThpService::collapse_tick(std::uint64_t token) {
  const auto it = std::find_if(pending_collapses_.begin(), pending_collapses_.end(),
                               [token](const PendingCollapse& p) { return p.token == token; });
  HPMMAP_ASSERT(it != pending_collapses_.end(), "collapse token fired without registry entry");
  const MergeCandidate c{it->as, it->region, it->mapped_small};
  pending_collapses_.erase(it);
  // Re-validate: the process may have exited or the region may have
  // changed while the daemon was scanning.
  if (std::find(processes_.begin(), processes_.end(), c.as) == processes_.end()) {
    return;
  }
  if (c.as->page_table().small_count_in_2m(c.region) < 64 ||
      c.as->page_table().large_leaf_at(c.region) ||
      inflight_.contains({c.as, c.region})) {
    return;
  }
  perform_merge(c);
}

void ThpService::perform_merge(const MergeCandidate& candidate) {
  AddressSpace& as = *candidate.as;
  const Addr region = candidate.region;
  const ZoneId zone = as.zone_for(region);

  // Injected abort: khugepaged abandons the candidate before touching
  // any state (the kernel's collapse_huge_page bails the same way when
  // its revalidation fails). The region stays 4K-mapped and remains a
  // future candidate.
  if (verify::injector().should_fail(verify::InjectPoint::kThpMergeAbort)) {
    ++stats_.merges_aborted;
    trace::instant(trace::Category::kThp, "khugepaged.merge_abort", as.pid(), -1,
                   {trace::Arg::str("reason", "injected")});
    return;
  }

  // Allocate the huge page first (outside the lock, like the kernel).
  AllocOutcome huge = memory_.alloc_pages(zone, kLargePageOrder, /*allow_reclaim=*/true);
  if (!huge.ok) {
    ++stats_.merges_aborted;
    return;
  }

  const CostModel& costs = memory_.costs();
  // Merge duration: the huge-page allocation (reclaim/compaction under
  // load) plus unmapping each mapped PTE, copying the payload into the
  // huge page, flushing and remapping — the expensive parts run with the
  // process's locks held (§II-B: "a relatively long operation compared
  // to a typical page fault"). Competing load preempts the daemon
  // mid-merge and stretches the hold further.
  // The collapse writes the full 2 MiB: mapped pages are copied and the
  // holes (khugepaged_max_ptes_none) are zero-filled.
  Cycles duration = memory_.alloc_cycles(huge, zone) + costs.merge_fixed +
                    candidate.mapped_small * costs.merge_per_pte +
                    memory_.zero_cost(zone, kLargePageSize, costs.copy_bytes_per_cycle) +
                    costs.tlb_flush_full;
  const double load = load_factor_();
  if (load > 1.0) {
    duration = static_cast<Cycles>(
        static_cast<double>(duration) *
        (1.0 + (costs.khugepaged_preempt_factor_loaded - 1.0) * std::min(load - 1.0, 1.0)));
  }
  // Tail: occasionally the daemon loses the CPU entirely mid-merge.
  if (load > 1.0 && memory_.rng().chance(0.25)) {
    duration += static_cast<Cycles>(memory_.rng().pareto(static_cast<double>(duration), 1.4));
  }

  as.lock_until(engine_.now() + duration);
  stats_.total_merge_lock_cycles += duration;
  inflight_.insert({&as, region});
  if (trace::on(trace::Category::kThp)) {
    // The span covers the full PT-lock hold — the window that turns
    // concurrent faults into merge-followers (Figure 4's blue dots).
    trace::complete(trace::Category::kThp, "khugepaged.merge", engine_.now(), duration, as.pid(),
                    -1,
                    {trace::Arg::u64("region", region),
                     trace::Arg::u64("mapped_small", candidate.mapped_small)});
    trace::metrics().histogram("thp.merge_lock_cycles").add(static_cast<double>(duration));
  }

  const Addr huge_phys = huge.addr;
  AddressSpace* asp = &as;
  const std::uint64_t token = next_token_++;
  const sim::EventId ev = engine_.schedule(duration, [this, token] { finish_merge(token); });
  pending_merges_.push_back({token, asp, region, huge_phys, ev});
}

void ThpService::finish_merge(std::uint64_t token) {
  const auto it = std::find_if(pending_merges_.begin(), pending_merges_.end(),
                               [token](const PendingMerge& p) { return p.token == token; });
  HPMMAP_ASSERT(it != pending_merges_.end(), "merge token fired without registry entry");
  AddressSpace* asp = it->as;
  const Addr region = it->region;
  const Addr huge_phys = it->huge_phys;
  pending_merges_.erase(it);
  inflight_.erase({asp, region});
  const auto abort_merge = [&] {
    memory_.free_pages(memory_.phys().zone_of(huge_phys), huge_phys, kLargePageOrder);
  };
  // The process may have exited mid-merge, or the region may have been
  // munmapped (temp buffers churn fast); either way the merge aborts
  // and the huge page goes back to the buddy.
  if (std::find(processes_.begin(), processes_.end(), asp) == processes_.end()) {
    abort_merge();
    ++stats_.merges_aborted;
    trace::instant(trace::Category::kThp, "khugepaged.merge_abort", 0, -1,
                   {trace::Arg::str("reason", "process_exited")});
    return;
  }
  AddressSpace& target = *asp;
  const Vma* vma = target.vmas().find(region);
  if (vma == nullptr || !vma->thp_eligible || vma->locked ||
      !vma->range.contains(Range{region, region + kLargePageSize}) ||
      target.page_table().large_leaf_at(region)) {
    // Region vanished, got remapped, or the fault path huge-mapped it
    // while the merge was copying: abort.
    abort_merge();
    ++stats_.merges_aborted;
    trace::instant(trace::Category::kThp, "khugepaged.merge_abort", target.pid(), -1,
                   {trace::Arg::str("reason", "region_changed")});
    return;
  }
  // Unmap the small pages and return their frames; install the leaf.
  PageTable& pt = target.page_table();
  for (Addr va = region; va < region + kLargePageSize; va += kSmallPageSize) {
    const auto t = pt.walk(va);
    if (t.has_value() && t->size == PageSize::k4K) {
      const Addr frame = align_down(t->phys, kSmallPageSize);
      pt.unmap(va, PageSize::k4K);
      memory_.free_pages(memory_.phys().zone_of(frame), frame, 0);
    }
  }
  const Errno err = pt.map(region, huge_phys, PageSize::k2M, vma->prot);
  HPMMAP_ASSERT(err == Errno::kOk, "merge target region was not fully cleared");
  ++stats_.merges_completed;
  if (trace::on(trace::Category::kThp)) {
    trace::instant(trace::Category::kThp, "khugepaged.merge_done", target.pid(), -1,
                   {trace::Arg::u64("region", region)});
    ++trace::metrics().counter("khugepaged.merges_completed");
  }
}

unsigned ThpService::split_for_mlock(AddressSpace& as, Range range) {
  unsigned splits = 0;
  for (Addr va = align_down(range.begin, kLargePageSize); va < range.end;
       va += kLargePageSize) {
    const auto t = as.page_table().walk(va);
    if (t.has_value() && t->size == PageSize::k2M) {
      const Errno err = as.page_table().split_large(va);
      HPMMAP_ASSERT(err == Errno::kOk, "walk said a 2M leaf exists");
      ++splits;
    }
  }
  stats_.split_on_mlock += splits;
  return splits;
}

} // namespace hpmmap::mm
