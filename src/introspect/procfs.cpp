#include "introspect/procfs.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "core/kitten_allocator.hpp"
#include "core/module.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/thp.hpp"
#include "os/node.hpp"
#include "os/process.hpp"

namespace hpmmap::introspect {

namespace {

#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
}

/// meminfo-style "Name:       value kB" row (kernel: "%-15s %8lu kB").
void meminfo_row(std::string& out, const char* label, std::uint64_t bytes_value) {
  appendf(out, "%-15s %8" PRIu64 " kB\n", label, bytes_value / 1024);
}

} // namespace

std::string render_buddyinfo(const std::vector<BuddyinfoZone>& zones) {
  std::string out;
  for (const BuddyinfoZone& z : zones) {
    appendf(out, "Node %u, zone %8s", static_cast<unsigned>(z.zone), z.zone_name);
    for (const std::uint64_t count : z.free_counts) {
      appendf(out, " %6" PRIu64, count);
    }
    out += '\n';
  }
  return out;
}

std::string render_meminfo(const Meminfo& info) {
  std::string out;
  meminfo_row(out, "MemTotal:", info.mem_total);
  meminfo_row(out, "MemFree:", info.mem_free);
  meminfo_row(out, "Cached:", info.cached);
  meminfo_row(out, "AnonPages:", info.anon_pages);
  meminfo_row(out, "AnonHugePages:", info.anon_huge_pages);
  meminfo_row(out, "PageTables:", info.page_tables);
  appendf(out, "HugePages_Total:   %5" PRIu64 "\n", info.hugepages_total);
  appendf(out, "HugePages_Free:    %5" PRIu64 "\n", info.hugepages_free);
  appendf(out, "Hugepagesize:      %5u kB\n", 2048u);
  // Extension rows the real HPMMAP module would add: memory Linux lost
  // to hot-remove and what the Kitten heaps still have free.
  meminfo_row(out, "HpmmapOffline:", info.hpmmap_offline);
  meminfo_row(out, "HpmmapFree:", info.hpmmap_free);
  return out;
}

std::string render_vmstat(const Vmstat& s) {
  std::string out;
  appendf(out, "pgfault %" PRIu64 "\n", s.pgfault);
  appendf(out, "pgalloc_normal %" PRIu64 "\n", s.pgalloc);
  appendf(out, "pgfree %" PRIu64 "\n", s.pgfree);
  appendf(out, "pswpout %" PRIu64 "\n", s.pswpout);
  appendf(out, "allocstall %" PRIu64 "\n", s.allocstall);
  appendf(out, "thp_fault_alloc %" PRIu64 "\n", s.thp_fault_alloc);
  appendf(out, "thp_fault_fallback %" PRIu64 "\n", s.thp_fault_fallback);
  appendf(out, "thp_collapse_alloc %" PRIu64 "\n", s.thp_collapse_alloc);
  appendf(out, "thp_collapse_abort %" PRIu64 "\n", s.thp_collapse_abort);
  appendf(out, "thp_split_page %" PRIu64 "\n", s.thp_split_page);
  appendf(out, "htlb_fault_alloc %" PRIu64 "\n", s.htlb_fault_alloc);
  appendf(out, "htlb_pool_exhausted %" PRIu64 "\n", s.htlb_pool_exhausted);
  return out;
}

std::string render_pagetypeinfo(const std::vector<PagetypeinfoZone>& zones) {
  static constexpr const char* kOwnerName[PagetypeinfoZone::kOwnerCount] = {
      "buddy-free", "cache-clean", "cache-dirty", "hugetlb-pool", "pcp-cache"};
  std::string out;
  std::size_t orders = 0;
  for (const PagetypeinfoZone& z : zones) {
    for (const auto& per_order : z.counts) {
      orders = per_order.size() > orders ? per_order.size() : orders;
    }
  }
  out += "Free pages count per owner state at order    ";
  for (std::size_t o = 0; o < orders; ++o) {
    appendf(out, " %6zu", o);
  }
  out += '\n';
  for (const PagetypeinfoZone& z : zones) {
    for (std::size_t s = 0; s < z.counts.size(); ++s) {
      appendf(out, "Node %u, zone %8s, type %12s", static_cast<unsigned>(z.zone), "Normal",
              kOwnerName[s]);
      for (const std::uint64_t count : z.counts[s]) {
        appendf(out, " %6" PRIu64, count);
      }
      out += '\n';
    }
  }
  return out;
}

std::string render_smaps(const SmapsProcess& proc) {
  std::string out;
  for (const SmapsVma& v : proc.vmas) {
    appendf(out, "%" PRIx64 "-%" PRIx64 " %c%c%cp %s\n", v.range.begin, v.range.end,
            has(v.prot, Prot::kRead) ? 'r' : '-', has(v.prot, Prot::kWrite) ? 'w' : '-',
            has(v.prot, Prot::kExec) ? 'x' : '-', v.kind);
    meminfo_row(out, "Size:", v.range.size());
    meminfo_row(out, "Rss:", v.rss());
    meminfo_row(out, "AnonHugePages:", v.rss_2m);
    meminfo_row(out, "Gb1Pages:", v.rss_1g);
    meminfo_row(out, "Swap:", v.swapped);
    meminfo_row(out, "Locked:", v.locked ? v.rss() : 0);
    // Dominant backing page size, like the kernel's KernelPageSize.
    const std::uint64_t kps =
        v.rss_1g > 0 ? kHugePageSize : (v.rss_2m > 0 ? kLargePageSize : kSmallPageSize);
    appendf(out, "%-15s %8" PRIu64 " kB\n", "KernelPageSize:", kps / 1024);
    appendf(out, "THPeligible:    %d\n", v.thp_eligible ? 1 : 0);
  }
  return out;
}

std::string buddyinfo_text(os::Node& node) {
  std::vector<BuddyinfoZone> zones;
  capture_buddyinfo(node, zones);
  return render_buddyinfo(zones);
}

std::string meminfo_text(os::Node& node) {
  Meminfo info;
  capture_meminfo(node, info);
  return render_meminfo(info);
}

std::string vmstat_text(os::Node& node) {
  Vmstat stats;
  capture_vmstat(node, stats);
  return render_vmstat(stats);
}

std::string pagetypeinfo_text(os::Node& node) {
  std::vector<PagetypeinfoZone> zones;
  capture_pagetypeinfo(node, zones);
  return render_pagetypeinfo(zones);
}

std::string smaps_text(os::Node& node, const os::Process& proc) {
  SmapsProcess rec;
  capture_smaps(node, proc, rec);
  return render_smaps(rec);
}

std::string hpmmap_text(os::Node& node) {
  std::string out;
  if (const mm::ThpService* thp = node.thp()) {
    const mm::ThpStats& ts = thp->stats();
    appendf(out, "khugepaged: scanned %" PRIu64 " merged %" PRIu64 " aborted %" PRIu64
                 " lock_cycles %" PRIu64 "\n",
            ts.merge_candidates_scanned, ts.merges_completed, ts.merges_aborted,
            ts.total_merge_lock_cycles);
  }
  if (const mm::HugetlbPool* pool = node.hugetlb()) {
    const mm::HugetlbStats& hs = pool->stats();
    appendf(out, "hugetlb: pool_pages %" PRIu64 " faults_served %" PRIu64 " exhausted %" PRIu64
                 "\n",
            hs.pool_pages_total, hs.faults_served, hs.pool_exhausted);
  }
  const core::HpmmapModule* mod = node.hpmmap_module();
  if (mod == nullptr) {
    return out;
  }
  const core::ModuleStats& ms = mod->stats();
  appendf(out, "hpmmap: registered %" PRIu64 " syscalls %" PRIu64 " bytes_mapped %" PRIu64 "\n",
          ms.registered, ms.syscalls_interposed, ms.bytes_mapped);
  appendf(out, "hpmmap: map_2m %" PRIu64 " map_1g %" PRIu64 " demand_faults %" PRIu64
               " spurious_faults %" PRIu64 "\n",
          ms.map_2m, ms.map_1g, ms.demand_faults, ms.spurious_faults);
  const core::KittenAllocator& kitten = mod->allocator();
  for (ZoneId z = 0; z < kitten.zone_count(); ++z) {
    appendf(out, "hpmmap: zone %u kitten_free %" PRIu64 " kitten_total %" PRIu64 "\n",
            static_cast<unsigned>(z), kitten.free_bytes(z), kitten.total_bytes(z));
  }
  return out;
}

std::string procfs_dump(os::Node& node) {
  std::string out;
  const auto file = [&](const char* path, std::string body) {
    appendf(out, "==> %s <==\n", path);
    out += body;
    out += '\n';
  };
  file("/proc/buddyinfo", buddyinfo_text(node));
  file("/proc/meminfo", meminfo_text(node));
  file("/proc/vmstat", vmstat_text(node));
  file("/proc/pagetypeinfo", pagetypeinfo_text(node));
  const std::string hpmmap = hpmmap_text(node);
  if (!hpmmap.empty()) {
    file("/proc/hpmmap", hpmmap);
  }
  node.for_each_process([&](const os::Process& p) {
    if (!p.alive()) {
      return;
    }
    std::string path = "/proc/" + std::to_string(p.pid()) + "/smaps (" + p.name() + ")";
    file(path.c_str(), smaps_text(node, p));
  });
  return out;
}

} // namespace hpmmap::introspect
