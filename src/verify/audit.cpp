#include "verify/audit.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "core/module.hpp"
#include "hw/phys_mem.hpp"
#include "linux_mm/address_space.hpp"
#include "linux_mm/buddy_allocator.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/memory_system.hpp"
#include "linux_mm/smp.hpp"
#include "linux_mm/vma.hpp"
#include "os/node.hpp"
#include "os/process.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace hpmmap::verify {
namespace {

std::string hex(Addr a) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(a));
  return std::string{buf};
}

std::string num(std::uint64_t v) { return std::to_string(v); }

} // namespace

void AuditReport::add(std::string check, std::string detail) {
  if (violations.size() >= kMaxViolations) {
    ++dropped;
    return;
  }
  violations.push_back(Violation{std::move(check), std::move(detail)});
}

std::string AuditReport::summary() const {
  std::string out = "audit: " + num(checks) + " checks, " + num(violation_count()) +
                    " violations";
  for (const Violation& v : violations) {
    out += "\n  [" + v.check + "] " + v.detail;
  }
  if (dropped > 0) {
    out += "\n  (+" + num(dropped) + " more)";
  }
  return out;
}

void audit_buddy(const mm::BuddyAllocator& buddy, std::string_view label, AuditReport& report) {
  const std::string who{label};
  const Range range = buddy.range();
  struct Block {
    Addr addr;
    unsigned order;
  };
  std::vector<Block> blocks;
  std::uint64_t sum = 0;
  buddy.for_each_free_block([&](Addr a, unsigned o) {
    const std::uint64_t size = mm::BuddyAllocator::order_bytes(o);
    ++report.checks;
    if (!range.contains(a) || a + size > range.end) {
      report.add("buddy.out_of_range",
                 who + ": free block " + hex(a) + " order " + num(o) + " outside " +
                     hex(range.begin) + "-" + hex(range.end));
    }
    ++report.checks;
    if (!is_aligned(a - range.begin, size)) {
      report.add("buddy.misaligned",
                 who + ": free block " + hex(a) + " misaligned for order " + num(o));
    }
    // Uncoalesced pair: this block's buddy is free at the same order, so
    // free() should have merged them. Report each pair once (a < buddy).
    const Addr buddy_addr = range.begin + ((a - range.begin) ^ size);
    ++report.checks;
    if (o < buddy.max_order() && a < buddy_addr && buddy_addr + size <= range.end &&
        buddy.free_block_containing(buddy_addr) ==
            std::make_optional(std::make_pair(buddy_addr, o))) {
      report.add("buddy.uncoalesced",
                 who + ": blocks " + hex(a) + " and " + hex(buddy_addr) + " at order " +
                     num(o) + " are mergeable buddies");
    }
    blocks.push_back(Block{a, o});
    sum += size;
  });
  ++report.checks;
  if (sum != buddy.free_bytes()) {
    report.add("buddy.accounting",
               who + ": free list sum " + num(sum) + " != accounted free_bytes " +
                   num(buddy.free_bytes()));
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const Block& x, const Block& y) { return x.addr < y.addr; });
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    const Block& prev = blocks[i - 1];
    const Block& cur = blocks[i];
    ++report.checks;
    if (prev.addr + mm::BuddyAllocator::order_bytes(prev.order) > cur.addr) {
      report.add("buddy.overlap",
                 who + ": free block " + hex(prev.addr) + " order " + num(prev.order) +
                     " overlaps " + hex(cur.addr) + " order " + num(cur.order));
    }
  }
}

void audit_page_cache(const mm::PageCache& cache, std::string_view label, AuditReport& report) {
  const std::string who{label};
  std::vector<Addr> walked;
  walked.reserve(cache.block_count());
  std::uint64_t bytes = 0;
  cache.for_each_lru([&](Addr a, unsigned o, bool dirty) {
    (void)dirty;
    walked.push_back(a);
    bytes += mm::BuddyAllocator::order_bytes(o);
    ++report.checks;
    if (cache.block_containing(a) != std::make_optional(std::make_pair(a, o))) {
      report.add("cache.unindexed",
                 who + ": LRU block " + hex(a) + " order " + num(o) + " is not in the index");
    }
  });
  // The LRU holds each block once: a duplicate would be reclaimed twice,
  // and the block it displaced never.
  std::sort(walked.begin(), walked.end());
  ++report.checks;
  if (const auto dup = std::adjacent_find(walked.begin(), walked.end()); dup != walked.end()) {
    report.add("cache.lru_broken", who + ": LRU holds block " + hex(*dup) + " more than once");
  }
  ++report.checks;
  if (bytes != cache.cached_bytes()) {
    report.add("cache.accounting",
               who + ": LRU byte total " + num(bytes) + " != accounted cached_bytes " +
                   num(cache.cached_bytes()));
  }
  // Index -> LRU direction: with every LRU block indexed, equal counts
  // leave no indexed block the LRU does not reach (such a block is
  // unreachable by reclaim yet seen by compaction).
  std::uint64_t indexed = 0;
  cache.for_each_block([&](Addr, unsigned) { ++indexed; });
  ++report.checks;
  if (indexed != cache.block_count()) {
    report.add("cache.index_orphan",
               who + ": index holds " + num(indexed) + " blocks, LRU holds " +
                   num(cache.block_count()));
  }
}

AuditReport MmAuditor::run() {
  AuditReport report;
  audit_buddies(report);
  audit_caches(report);
  audit_vmas(report);
  audit_page_tables(report);
  audit_frames(report);
  audit_hugetlb(report);
  audit_pcp(report);
  ++trace::metrics().counter("audit.runs");
  trace::metrics().counter("audit.checks") += report.checks;
  trace::metrics().counter("audit.violations") += report.violation_count();
  if (trace::on(trace::Category::kVerify)) {
    trace::instant(trace::Category::kVerify, "audit.run", 0, -1,
                   {trace::Arg::u64("checks", report.checks),
                    trace::Arg::u64("violations", report.violation_count())});
  }
  return report;
}

void MmAuditor::audit_buddies(AuditReport& report) {
  mm::MemorySystem& memory = node_.memory();
  for (ZoneId z = 0; z < memory.zone_count(); ++z) {
    audit_buddy(memory.buddy(z), "zone " + num(z), report);
  }
  if (const core::HpmmapModule* module = node_.hpmmap_module(); module != nullptr) {
    module->allocator().for_each_buddy([&](ZoneId z, const mm::BuddyAllocator& buddy) {
      audit_buddy(buddy, "kitten zone " + num(z) + " @" + hex(buddy.range().begin), report);
    });
  }
}

void MmAuditor::audit_caches(AuditReport& report) {
  mm::MemorySystem& memory = node_.memory();
  for (ZoneId z = 0; z < memory.zone_count(); ++z) {
    audit_page_cache(memory.cache(z), "zone " + num(z), report);
  }
}

void MmAuditor::audit_vmas(AuditReport& report) {
  const core::HpmmapModule* module = node_.hpmmap_module();
  node_.for_each_process([&](const os::Process& proc) {
    if (!proc.alive()) {
      return;
    }
    ++report.checks;
    if (!proc.address_space().vmas().check_consistency()) {
      report.add("vma.inconsistent", "pid " + num(proc.pid()) + ": Linux VMA tree");
    }
    if (module != nullptr) {
      if (const mm::VmaTree* regions = module->regions_for(proc.pid()); regions != nullptr) {
        ++report.checks;
        if (!regions->check_consistency()) {
          report.add("vma.inconsistent", "pid " + num(proc.pid()) + ": HPMMAP region list");
        }
      }
    }
  });
}

void MmAuditor::audit_page_tables(AuditReport& report) {
  const hw::PhysicalMemory& phys = node_.phys();
  const core::HpmmapModule* module = node_.hpmmap_module();
  node_.for_each_process([&](const os::Process& proc) {
    if (!proc.alive()) {
      return;
    }
    const Pid pid = proc.pid();
    const mm::AddressSpace& as = proc.address_space();
    hw::MappingMix recount;
    as.page_table().for_each_leaf([&](Addr va, mm::Translation t) {
      const std::uint64_t size = bytes(t.size);
      switch (t.size) {
        case PageSize::k4K: recount.bytes_4k += size; break;
        case PageSize::k2M: recount.bytes_2m += size; break;
        case PageSize::k1G: recount.bytes_1g += size; break;
      }
      // Which manager's region list should contain this leaf?
      const bool window = core::HpmmapModule::in_window(va);
      const mm::VmaTree* tree = nullptr;
      if (window) {
        tree = module != nullptr ? module->regions_for(pid) : nullptr;
        ++report.checks;
        if (tree == nullptr) {
          report.add("pte.window_unregistered",
                     "pid " + num(pid) + ": leaf " + hex(va) +
                         " in HPMMAP window but pid not registered");
          return;
        }
      } else {
        tree = &as.vmas();
      }
      const mm::Vma* vma = tree->find(va);
      ++report.checks;
      if (vma == nullptr || !vma->range.contains(Range{va, va + size})) {
        report.add("pte.outside_vma",
                   "pid " + num(pid) + ": leaf " + hex(va) + " size " + num(size) +
                       (vma == nullptr ? " inside no VMA"
                                       : " straddles VMA " + hex(vma->range.begin) + "-" +
                                             hex(vma->range.end)));
        return;
      }
      ++report.checks;
      if (t.prot != vma->prot) {
        report.add("pte.prot_mismatch",
                   "pid " + num(pid) + ": leaf " + hex(va) + " prot " +
                       num(static_cast<std::uint32_t>(t.prot)) + " != VMA prot " +
                       num(static_cast<std::uint32_t>(vma->prot)));
      }
      // Isolation (§III-A): window mappings live on offlined frames,
      // Linux mappings on online frames — the managers never cross.
      ++report.checks;
      if (phys.valid(t.phys) && phys.is_offline(t.phys) != window) {
        report.add("pte.isolation",
                   "pid " + num(pid) + ": leaf " + hex(va) + " -> frame " + hex(t.phys) +
                       (window ? " (window leaf on online frame)"
                               : " (Linux leaf on offlined frame)"));
      }
    });
    const hw::MappingMix stored = as.mapping_mix();
    ++report.checks;
    if (stored.bytes_4k != recount.bytes_4k || stored.bytes_2m != recount.bytes_2m ||
        stored.bytes_1g != recount.bytes_1g) {
      report.add("pte.mix_drift",
                 "pid " + num(pid) + ": stored mix 4k/2m/1g " + num(stored.bytes_4k) + "/" +
                     num(stored.bytes_2m) + "/" + num(stored.bytes_1g) + " != recount " +
                     num(recount.bytes_4k) + "/" + num(recount.bytes_2m) + "/" +
                     num(recount.bytes_1g));
    }
    // A page sits in swap or in the page table, never both (the TLB/mix
    // consuming only mapped leaves depends on this).
    for (Addr page : as.swapped_set()) {
      ++report.checks;
      if (as.page_table().walk(page).has_value()) {
        report.add("pte.swapped_mapped",
                   "pid " + num(pid) + ": page " + hex(page) + " both swapped-out and mapped");
      }
    }
  });
}

void MmAuditor::audit_frames(AuditReport& report) {
  struct Interval {
    Addr begin;
    Addr end;
    const char* owner;
    Pid pid; // 0 for non-process owners
  };
  std::vector<Interval> frames;
  const hw::PhysicalMemory& phys = node_.phys();
  node_.for_each_process([&](const os::Process& proc) {
    if (!proc.alive()) {
      return;
    }
    proc.address_space().page_table().for_each_leaf([&](Addr va, mm::Translation t) {
      (void)va;
      frames.push_back(Interval{t.phys, t.phys + bytes(t.size), "mapped", proc.pid()});
    });
  });
  mm::MemorySystem& memory = node_.memory();
  for (ZoneId z = 0; z < memory.zone_count(); ++z) {
    memory.buddy(z).for_each_free_block([&](Addr a, unsigned o) {
      frames.push_back(Interval{a, a + mm::BuddyAllocator::order_bytes(o), "buddy_free", 0});
    });
    memory.cache(z).for_each_block([&](Addr a, unsigned o) {
      frames.push_back(Interval{a, a + mm::BuddyAllocator::order_bytes(o), "page_cache", 0});
    });
  }
  if (const mm::HugetlbPool* pool = node_.hugetlb(); pool != nullptr) {
    for (ZoneId z = 0; z < memory.zone_count(); ++z) {
      pool->for_each_pool_page(z, [&](Addr a) {
        frames.push_back(Interval{a, a + kLargePageSize, "hugetlb_pool", 0});
      });
    }
  }
  if (const mm::SmpDomain* smp = node_.smp(); smp != nullptr) {
    smp->for_each_pcp_frame([&](std::uint32_t cpu, ZoneId z, Addr a) {
      (void)cpu;
      (void)z;
      frames.push_back(Interval{a, a + kSmallPageSize, "pcp_cache", 0});
    });
  }
  if (const core::HpmmapModule* module = node_.hpmmap_module(); module != nullptr) {
    ++report.checks;
    if (!module->allocator().check_consistency()) {
      report.add("kitten.inconsistent", "a Kitten heap failed its structural check");
    }
    module->allocator().for_each_buddy([&](ZoneId z, const mm::BuddyAllocator& buddy) {
      (void)z;
      buddy.for_each_free_block([&](Addr a, unsigned o) {
        frames.push_back(Interval{a, a + mm::BuddyAllocator::order_bytes(o), "kitten_free", 0});
      });
    });
  }
  for (const Interval& iv : frames) {
    ++report.checks;
    if (!phys.valid(iv.begin) || !phys.valid(iv.end - 1)) {
      report.add("frame.invalid",
                 std::string{iv.owner} + " frames " + hex(iv.begin) + "-" + hex(iv.end) +
                     " outside physical RAM");
    }
  }
  // Every frame has at most one owner: a frame simultaneously mapped and
  // free (a leak into the freelists), mapped by two processes (a
  // double-map), or cached and pooled is exactly one overlap here.
  std::sort(frames.begin(), frames.end(), [](const Interval& x, const Interval& y) {
    return x.begin != y.begin ? x.begin < y.begin : x.end < y.end;
  });
  Addr watermark = 0;
  const Interval* holder = nullptr;
  for (const Interval& iv : frames) {
    ++report.checks;
    if (holder != nullptr && iv.begin < watermark) {
      report.add("frame.double_owner",
                 "frames " + hex(iv.begin) + "-" + hex(std::min(iv.end, watermark)) +
                     " owned by both " + holder->owner +
                     (holder->pid != 0 ? " (pid " + num(holder->pid) + ")" : "") + " and " +
                     iv.owner + (iv.pid != 0 ? " (pid " + num(iv.pid) + ")" : ""));
    }
    if (iv.end > watermark) {
      watermark = iv.end;
      holder = &iv;
    }
  }
}

void MmAuditor::audit_hugetlb(AuditReport& report) {
  const mm::HugetlbPool* pool = node_.hugetlb();
  if (pool == nullptr) {
    return;
  }
  mm::MemorySystem& memory = node_.memory();
  std::uint64_t total = 0;
  std::uint64_t free = 0;
  for (ZoneId z = 0; z < memory.zone_count(); ++z) {
    total += pool->total_pages(z);
    free += pool->free_pages(z);
    // The stack must walk to exactly the counted pages, each with its
    // pooled bit set, and no other bit may be set.
    const Range zone = memory.buddy(z).range();
    std::uint64_t walked = 0;
    pool->for_each_pool_page(z, [&](Addr a) {
      ++walked;
      ++report.checks;
      if (!zone.contains(a) || !is_aligned(a - zone.begin, kLargePageSize) ||
          !pool->pooled(z, a)) {
        report.add("hugetlb.pooled_bit",
                   "zone " + num(z) + ": pooled page " + hex(a) + " has no pooled bit");
      }
    });
    ++report.checks;
    if (pool->pooled_count(z) != walked) {
      report.add("hugetlb.pooled_bit",
                 "zone " + num(z) + ": " + num(pool->pooled_count(z)) +
                     " pooled bits set, the stack holds " + num(walked) + " pages");
    }
    ++report.checks;
    if (walked != pool->free_pages(z)) {
      report.add("hugetlb.stack",
                 "zone " + num(z) + ": pool stack walks to " + num(walked) +
                     " pages, counter says " + num(pool->free_pages(z)));
    }
  }
  // Pages leave the pool only by being mapped into a hugetlb VMA; count
  // those leaves and demand conservation (global, because alloc_page
  // spills across zones under pressure).
  std::uint64_t used = 0;
  node_.for_each_process([&](const os::Process& proc) {
    if (!proc.alive()) {
      return;
    }
    const mm::AddressSpace& as = proc.address_space();
    as.page_table().for_each_leaf([&](Addr va, mm::Translation t) {
      if (t.size != PageSize::k2M) {
        return;
      }
      const mm::Vma* vma = as.vmas().find(va);
      if (vma != nullptr && vma->kind == mm::VmaKind::kHugetlb) {
        ++used;
      }
    });
  });
  ++report.checks;
  if (free + used != total) {
    report.add("hugetlb.conservation",
               "pool free " + num(free) + " + mapped " + num(used) + " != reserved " +
                   num(total));
  }
}

void MmAuditor::audit_pcp(AuditReport& report) {
  const mm::SmpDomain* smp = node_.smp();
  if (smp == nullptr) {
    return;
  }
  mm::MemorySystem& memory = node_.memory();
  // Every cached frame lies in its zone, and no frame sits on two CPUs'
  // lists (a frame popped by two cores at once is the double-alloc
  // waiting to happen).
  std::map<Addr, std::uint32_t> owner; // frame -> first owning cpu
  smp->for_each_pcp_frame([&](std::uint32_t cpu, ZoneId z, Addr a) {
    ++report.checks;
    if (z >= memory.zone_count() || !memory.buddy(z).range().contains(a)) {
      report.add("pcp.out_of_range",
                 "cpu " + num(cpu) + ": cached frame " + hex(a) + " outside zone " + num(z));
    }
    ++report.checks;
    const auto [it, fresh] = owner.emplace(a, cpu);
    if (!fresh) {
      report.add("pcp.duplicate",
                 "zone " + num(z) + ": frame " + hex(a) + " cached by both cpu " +
                     num(it->second) + " and cpu " + num(cpu));
    }
  });
}

} // namespace hpmmap::verify
