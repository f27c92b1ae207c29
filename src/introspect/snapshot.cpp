#include "introspect/snapshot.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/kitten_allocator.hpp"
#include "core/module.hpp"
#include "hw/phys_mem.hpp"
#include "linux_mm/address_space.hpp"
#include "linux_mm/buddy_allocator.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/page_cache.hpp"
#include "linux_mm/smp.hpp"
#include "linux_mm/thp.hpp"
#include "linux_mm/vma.hpp"
#include "os/node.hpp"
#include "os/process.hpp"

namespace hpmmap::introspect {

void capture_buddyinfo(os::Node& node, std::vector<BuddyinfoZone>& out) {
  mm::MemorySystem& mem = node.memory();
  const std::uint32_t linux_zones = mem.zone_count();
  std::uint32_t kitten_zones = 0;
  if (const core::HpmmapModule* mod = node.hpmmap_module()) {
    kitten_zones = mod->allocator().zone_count();
  }
  out.resize(linux_zones + kitten_zones);
  for (ZoneId z = 0; z < linux_zones; ++z) {
    const mm::BuddyAllocator& buddy = mem.buddy(z);
    BuddyinfoZone& row = out[z];
    row.zone = z;
    row.zone_name = "Normal";
    row.free_counts.assign(buddy.max_order() + 1, 0);
    for (unsigned o = 0; o <= buddy.max_order(); ++o) {
      row.free_counts[o] = buddy.free_blocks(o);
    }
  }
  if (const core::HpmmapModule* mod = node.hpmmap_module()) {
    // The Kitten heaps are one buddy per offlined range; aggregate per
    // zone like the kernel aggregates per-cpu lists into one zone row.
    for (ZoneId z = 0; z < kitten_zones; ++z) {
      BuddyinfoZone& row = out[linux_zones + z];
      row.zone = z;
      row.zone_name = "Kitten";
      row.free_counts.assign(1, 0);
    }
    mod->allocator().for_each_buddy([&](ZoneId z, const mm::BuddyAllocator& buddy) {
      BuddyinfoZone& row = out[linux_zones + z];
      if (row.free_counts.size() < buddy.max_order() + 1) {
        row.free_counts.resize(buddy.max_order() + 1, 0);
      }
      for (unsigned o = 0; o <= buddy.max_order(); ++o) {
        row.free_counts[o] += buddy.free_blocks(o);
      }
    });
  }
}

void capture_meminfo(os::Node& node, Meminfo& out) {
  out = Meminfo{};
  mm::MemorySystem& mem = node.memory();
  hw::PhysicalMemory& phys = node.phys();
  for (const hw::Zone& z : phys.zones()) {
    out.mem_total += phys.online_bytes(z.id);
    out.hpmmap_offline += phys.offlined_bytes(z.id);
  }
  for (ZoneId z = 0; z < mem.zone_count(); ++z) {
    out.mem_free += mem.free_bytes(z);
    out.cached += mem.cache(z).cached_bytes();
  }
  node.for_each_process([&](const os::Process& p) {
    if (!p.alive()) {
      return;
    }
    const hw::MappingMix mix = p.address_space().mapping_mix();
    out.page_tables += p.address_space().page_table().table_pages() * kSmallPageSize;
    switch (p.policy()) {
      case os::MmPolicy::kLinuxThp:
      case os::MmPolicy::kLinuxPlain:
        // THP-backed 2M leaves are anon huge pages; the kernel counts
        // them inside AnonPages too.
        out.anon_pages += mix.total();
        out.anon_huge_pages += mix.bytes_2m;
        break;
      case os::MmPolicy::kHugetlbfs:
        // 2M leaves of a hugetlbfs process are pool pages — accounted
        // under HugePages_*, not AnonPages.
        out.anon_pages += mix.bytes_4k;
        break;
      case os::MmPolicy::kHpmmap:
        // Window mappings (2M/1G) live in offlined memory Linux does
        // not account; only the Linux-side 4K residue is anon.
        out.anon_pages += mix.bytes_4k;
        break;
    }
  });
  if (const mm::HugetlbPool* pool = node.hugetlb()) {
    for (ZoneId z = 0; z < mem.zone_count(); ++z) {
      out.hugepages_total += pool->total_pages(z);
      out.hugepages_free += pool->free_pages(z);
    }
  }
  if (const core::HpmmapModule* mod = node.hpmmap_module()) {
    const core::KittenAllocator& kitten = mod->allocator();
    for (ZoneId z = 0; z < kitten.zone_count(); ++z) {
      out.hpmmap_free += kitten.free_bytes(z);
    }
  }
}

void capture_vmstat(os::Node& node, Vmstat& out) {
  out = Vmstat{};
  mm::MemorySystem& mem = node.memory();
  // Cumulative like the kernel's: dead processes keep contributing.
  node.for_each_process([&](const os::Process& p) {
    const mm::FaultStats& fs = p.fault_stats();
    for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
      out.pgfault += fs.count[k];
    }
  });
  for (ZoneId z = 0; z < mem.zone_count(); ++z) {
    const mm::BuddyStats& bs = mem.buddy(z).stats();
    out.pgalloc += bs.allocs;
    out.pgfree += bs.frees;
    out.allocstall += bs.failed_allocs;
  }
  out.pswpout = node.swapped_out_total();
  if (const mm::ThpService* thp = node.thp()) {
    const mm::ThpStats& ts = thp->stats();
    out.thp_fault_alloc = ts.fault_huge_success;
    out.thp_fault_fallback = ts.fault_huge_fallback;
    out.thp_collapse_alloc = ts.merges_completed;
    out.thp_collapse_abort = ts.merges_aborted;
    out.thp_split_page = ts.split_on_mlock;
  }
  if (const mm::HugetlbPool* pool = node.hugetlb()) {
    out.htlb_fault_alloc = pool->stats().faults_served;
    out.htlb_pool_exhausted = pool->stats().pool_exhausted;
  }
}

void capture_pagetypeinfo(os::Node& node, std::vector<PagetypeinfoZone>& out) {
  mm::MemorySystem& mem = node.memory();
  out.resize(mem.zone_count());
  for (ZoneId z = 0; z < mem.zone_count(); ++z) {
    const mm::BuddyAllocator& buddy = mem.buddy(z);
    PagetypeinfoZone& row = out[z];
    row.zone = z;
    row.counts.resize(PagetypeinfoZone::kOwnerCount);
    for (auto& per_order : row.counts) {
      per_order.assign(buddy.max_order() + 1, 0);
    }
    buddy.for_each_free_block(
        [&](Addr, unsigned order) { ++row.counts[PagetypeinfoZone::kBuddyFree][order]; });
    mem.cache(z).for_each_lru([&](Addr, unsigned order, bool dirty) {
      ++row.counts[dirty ? PagetypeinfoZone::kCacheDirty : PagetypeinfoZone::kCacheClean][order];
    });
    if (const mm::HugetlbPool* pool = node.hugetlb()) {
      pool->for_each_pool_page(
          z, [&](Addr) { ++row.counts[PagetypeinfoZone::kHugetlbPool][mm::kLargePageOrder]; });
    }
  }
  if (const mm::SmpDomain* smp = node.smp()) {
    smp->for_each_pcp_frame([&](std::uint32_t, ZoneId z, Addr) {
      ++out[z].counts[PagetypeinfoZone::kPcpCache][0];
    });
  }
}

void capture_smaps(os::Node& node, const os::Process& proc, SmapsProcess& out) {
  out.pid = proc.pid();
  out.name = proc.name();
  out.policy = os::name(proc.policy()).data();
  out.vmas.clear();

  const mm::AddressSpace& as = proc.address_space();
  as.vmas().for_each([&](const mm::Vma& v) {
    SmapsVma s;
    s.range = v.range;
    s.prot = v.prot;
    s.kind = mm::name(v.kind).data();
    s.thp_eligible = v.thp_eligible;
    s.locked = v.locked;
    out.vmas.push_back(s);
  });
  if (const core::HpmmapModule* mod = node.hpmmap_module()) {
    if (const mm::VmaTree* regions = mod->regions_for(proc.pid())) {
      regions->for_each([&](const mm::Vma& v) {
        SmapsVma s;
        s.range = v.range;
        s.prot = v.prot;
        s.kind = "hpmmap";
        s.hpmmap = true;
        out.vmas.push_back(s);
      });
    }
  }
  std::sort(out.vmas.begin(), out.vmas.end(),
            [](const SmapsVma& a, const SmapsVma& b) { return a.range.begin < b.range.begin; });

  // One page-table walk buckets every leaf into the VMA containing it.
  // Leaves never straddle VMA boundaries (the auditor's invariant), so
  // the containing VMA is found by binary search on range.begin.
  const auto vma_for = [&](Addr vaddr) -> SmapsVma* {
    auto it = std::upper_bound(
        out.vmas.begin(), out.vmas.end(), vaddr,
        [](Addr a, const SmapsVma& v) { return a < v.range.begin; });
    if (it == out.vmas.begin()) {
      return nullptr;
    }
    --it;
    return it->range.contains(vaddr) ? &*it : nullptr;
  };
  as.page_table().for_each_leaf([&](Addr vaddr, const mm::Translation& t) {
    SmapsVma* v = vma_for(vaddr);
    if (v == nullptr) {
      return; // leaf outside every VMA: the auditor flags it, not smaps
    }
    switch (t.size) {
      case PageSize::k4K: v->rss_4k += bytes(t.size); break;
      case PageSize::k2M: v->rss_2m += bytes(t.size); break;
      case PageSize::k1G: v->rss_1g += bytes(t.size); break;
    }
  });
  for (const Addr page : as.swapped_set()) {
    if (SmapsVma* v = vma_for(page)) {
      v->swapped += kSmallPageSize;
    }
  }
}

} // namespace hpmmap::introspect
