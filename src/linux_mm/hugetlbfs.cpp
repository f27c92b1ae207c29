#include "linux_mm/hugetlbfs.hpp"

#include <bit>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "verify/fault_inject.hpp"

namespace hpmmap::mm {

std::uint64_t HugetlbPool::page_of(ZoneId zone, Addr addr) const {
  const Range r = memory_.buddy(zone).range();
  HPMMAP_ASSERT(r.contains(addr) && is_aligned(addr - r.begin, kLargePageSize),
                "pooled page outside its zone");
  return (addr - r.begin) / kLargePageSize;
}

bool HugetlbPool::pooled(ZoneId zone, Addr addr) const {
  HPMMAP_ASSERT(zone < state_.pool.size(), "zone out of range");
  const std::uint64_t page = page_of(zone, addr);
  return ((state_.pool[zone].pooled[page / 64] >> (page % 64)) & 1u) != 0;
}

std::uint64_t HugetlbPool::pooled_count(ZoneId zone) const {
  HPMMAP_ASSERT(zone < state_.pool.size(), "zone out of range");
  std::uint64_t n = 0;
  for (const std::uint64_t w : state_.pool[zone].pooled) {
    n += static_cast<std::uint64_t>(std::popcount(w));
  }
  return n;
}

void HugetlbPool::push(ZoneId zone, Addr addr) {
  ZonePool& p = state_.pool[zone];
  const std::uint64_t page = page_of(zone, addr);
  // No state assertion here: the auditor, not this push, is responsible
  // for flagging a page returned while still mapped (leak detection
  // tests drive exactly that). A page that is already pooled — a double
  // free_page — is only re-accounted, never pushed twice: a count/stack
  // mismatch is exactly what the auditor's conservation and stack-walk
  // checks exist to catch.
  if (!pooled(zone, addr)) {
    p.pooled[page / 64] |= std::uint64_t{1} << (page % 64);
    p.stack.push_back(static_cast<std::uint32_t>(page * kSmallPagesPerLarge));
  }
  ++p.count;
}

Addr HugetlbPool::pop(ZoneId zone) {
  ZonePool& p = state_.pool[zone];
  const std::uint32_t idx = p.stack.back();
  p.stack.pop_back();
  const std::uint64_t page = idx / kSmallPagesPerLarge;
  p.pooled[page / 64] &= ~(std::uint64_t{1} << (page % 64));
  --p.count;
  return memory_.buddy(zone).range().begin + static_cast<Addr>(idx) * kSmallPageSize;
}

HugetlbPool::HugetlbPool(MemorySystem& memory, std::uint64_t bytes_per_zone)
    : memory_(memory) {
  const std::uint32_t zones = memory_.zone_count();
  state_.pool.resize(zones);
  state_.total.assign(zones, 0);
  const std::uint64_t pages = bytes_per_zone / kLargePageSize;
  for (ZoneId z = 0; z < zones; ++z) {
    const std::uint64_t zone_pages = memory_.buddy(z).range().size() / kLargePageSize;
    state_.pool[z].pooled.assign(static_cast<std::size_t>((zone_pages + 63) / 64), 0);
    for (std::uint64_t i = 0; i < pages; ++i) {
      AllocOutcome out = memory_.alloc_pages(z, kLargePageOrder, /*allow_reclaim=*/true);
      HPMMAP_ASSERT(out.ok, "hugetlb boot reservation failed: zone too small/fragmented");
      push(z, out.addr);
    }
    state_.total[z] = pages;
    state_.stats.pool_pages_total += pages;
  }
  log_info("hugetlbfs", "reserved %llu x 2M pages per zone across %u zones", static_cast<unsigned long long>(pages), zones);
  trace::instant(trace::Category::kHugetlb, "hugetlb.reserve", 0, -1,
                 {trace::Arg::u64("pages_per_zone", pages), trace::Arg::u64("zones", zones)});
}

HugetlbPool::~HugetlbPool() {
  // Return whatever is still pooled; outstanding pages die with the
  // simulated machine.
  for (ZoneId z = 0; z < state_.pool.size(); ++z) {
    while (!state_.pool[z].stack.empty()) {
      memory_.free_pages(z, pop(z), kLargePageOrder);
    }
  }
}

std::optional<std::pair<Addr, ZoneId>> HugetlbPool::alloc_page(ZoneId zone) {
  HPMMAP_ASSERT(zone < state_.pool.size(), "zone out of range");
  // Injected exhaustion: behave exactly as if every zone's pool were
  // empty (no page leaves the pool, so conservation holds); the caller
  // sees the same SIGBUS-path outcome a real dry pool produces.
  if (verify::injector().should_fail(verify::InjectPoint::kHugetlbAlloc)) {
    ++state_.stats.pool_exhausted;
    if (trace::on(trace::Category::kHugetlb)) {
      trace::instant(trace::Category::kHugetlb, "hugetlb.pool_exhausted", 0, -1,
                     {trace::Arg::u64("zone", zone)});
      ++trace::metrics().counter("hugetlb.pool_exhausted");
    }
    return std::nullopt;
  }
  for (std::uint32_t probe = 0; probe < state_.pool.size(); ++probe) {
    const ZoneId z = (zone + probe) % static_cast<ZoneId>(state_.pool.size());
    if (state_.pool[z].stack.empty()) {
      continue;
    }
    const Addr addr = pop(z);
    ++state_.stats.faults_served;
    if (trace::on(trace::Category::kHugetlb)) {
      trace::instant(trace::Category::kHugetlb, "hugetlb.alloc", 0, -1,
                     {trace::Arg::u64("zone", z),
                      trace::Arg::u64("pool_free", state_.pool[z].count),
                      trace::Arg::u64("spilled", z == zone ? 0 : 1)});
      ++trace::metrics().counter("hugetlb.pages_served");
    }
    return std::make_pair(addr, z);
  }
  ++state_.stats.pool_exhausted;
  if (trace::on(trace::Category::kHugetlb)) {
    trace::instant(trace::Category::kHugetlb, "hugetlb.pool_exhausted", 0, -1,
                   {trace::Arg::u64("zone", zone)});
    ++trace::metrics().counter("hugetlb.pool_exhausted");
  }
  return std::nullopt;
}

void HugetlbPool::free_page(ZoneId zone, Addr addr) {
  HPMMAP_ASSERT(zone < state_.pool.size(), "zone out of range");
  push(zone, addr);
  if (trace::on(trace::Category::kHugetlb)) {
    trace::instant(trace::Category::kHugetlb, "hugetlb.free", 0, -1,
                   {trace::Arg::u64("zone", zone),
                    trace::Arg::u64("pool_free", state_.pool[zone].count)});
  }
}

std::uint64_t HugetlbPool::free_pages(ZoneId zone) const {
  HPMMAP_ASSERT(zone < state_.pool.size(), "zone out of range");
  return state_.pool[zone].count;
}

std::uint64_t HugetlbPool::total_pages(ZoneId zone) const {
  HPMMAP_ASSERT(zone < state_.total.size(), "zone out of range");
  return state_.total[zone];
}

} // namespace hpmmap::mm
