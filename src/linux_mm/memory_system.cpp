#include "linux_mm/memory_system.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "verify/fault_inject.hpp"

namespace hpmmap::mm {

MemorySystem::MemorySystem(hw::PhysicalMemory& phys, hw::BandwidthModel& bw, Rng rng,
                           const CostModel& costs)
    : phys_(phys), bw_(bw), rng_(rng), costs_(costs) {
  rebuild_zones();
}

void MemorySystem::rebuild_zones() {
  zones_.clear();
  zones_.reserve(phys_.zones().size());
  for (const hw::Zone& z : phys_.zones()) {
    // Offlining drains sections from the top of the zone, so the online
    // portion is the contiguous prefix.
    const Range online{z.range.begin, z.range.begin + z.online_bytes};
    HPMMAP_ASSERT(!online.empty(), "zone fully offlined; Linux needs some memory per zone");
    zones_.emplace_back(online, z.online_bytes);
    zones_.back().cache.set_free_floor(static_cast<std::uint64_t>(
        costs_.watermark_low * static_cast<double>(z.online_bytes)));
  }
}

BuddyAllocator& MemorySystem::buddy(ZoneId zone) {
  HPMMAP_ASSERT(zone < zones_.size(), "zone out of range");
  return zones_[zone].buddy;
}

const BuddyAllocator& MemorySystem::buddy(ZoneId zone) const {
  HPMMAP_ASSERT(zone < zones_.size(), "zone out of range");
  return zones_[zone].buddy;
}

PageCache& MemorySystem::cache(ZoneId zone) {
  HPMMAP_ASSERT(zone < zones_.size(), "zone out of range");
  return zones_[zone].cache;
}

std::uint64_t MemorySystem::free_bytes(ZoneId zone) const {
  HPMMAP_ASSERT(zone < zones_.size(), "zone out of range");
  return zones_[zone].buddy.free_bytes();
}

bool MemorySystem::below_low_watermark(ZoneId zone) const {
  HPMMAP_ASSERT(zone < zones_.size(), "zone out of range");
  const auto& z = zones_[zone];
  return static_cast<double>(z.buddy.free_bytes()) <
         costs_.watermark_low * static_cast<double>(z.online_bytes);
}

bool MemorySystem::below_min_watermark(ZoneId zone) const {
  HPMMAP_ASSERT(zone < zones_.size(), "zone out of range");
  const auto& z = zones_[zone];
  return static_cast<double>(z.buddy.free_bytes()) <
         costs_.watermark_min * static_cast<double>(z.online_bytes);
}

ZoneId MemorySystem::fallback_zone(ZoneId preferred) const {
  ZoneId best = preferred;
  std::uint64_t best_free = 0;
  for (ZoneId z = 0; z < zones_.size(); ++z) {
    const std::uint64_t f = zones_[z].buddy.free_bytes();
    if (f > best_free) {
      best_free = f;
      best = z;
    }
  }
  return best;
}

bool MemorySystem::window_movable(const ZoneState& z, Range window) const {
  Addr pos = window.begin;
  while (pos < window.end) {
    if (auto free_blk = z.buddy.free_block_containing(pos); free_blk.has_value()) {
      pos = free_blk->first + BuddyAllocator::order_bytes(free_blk->second);
      continue;
    }
    if (auto cache_blk = z.cache.block_containing(pos); cache_blk.has_value()) {
      pos = cache_blk->first + BuddyAllocator::order_bytes(cache_blk->second);
      continue;
    }
    return false; // unmovable (anonymous/app/kernel) frame in the window
  }
  return true;
}

std::optional<Addr> MemorySystem::run_compaction(ZoneState& z, AllocOutcome& outcome) {
  outcome.entered_compaction = true;
  if (z.compact_defer > 0) {
    // defer_compaction(): a recent attempt failed; fail fast for a while
    // instead of rescanning a zone that has not changed.
    --z.compact_defer;
    outcome.compaction_deferred = true;
    return std::nullopt;
  }
  if (z.buddy.free_bytes() < 2 * kLargePageSize) {
    z.compact_defer = 16;
    return std::nullopt; // no migration headroom
  }
  const Range zr = z.buddy.range();
  const std::uint64_t window_count = zr.size() / kLargePageSize;
  constexpr std::uint64_t kScanBudget = 256; // windows per attempt, like the kernel's quota

  for (std::uint64_t scanned = 0; scanned < std::min(window_count, kScanBudget); ++scanned) {
    ++outcome.compaction_windows_scanned;
    if (z.compact_cursor + kLargePageSize > zr.end) {
      z.compact_cursor = zr.begin;
    }
    const Range window{z.compact_cursor, z.compact_cursor + kLargePageSize};
    z.compact_cursor += kLargePageSize;
    if (!window_movable(z, window)) {
      continue;
    }
    // Claim the free holes in the window first so migration targets are
    // found elsewhere, then migrate the cache blocks out one by one.
    struct Taken {
      Addr addr;
      unsigned order;
    };
    std::vector<Taken> holes;
    Addr pos = window.begin;
    while (pos < window.end) {
      if (auto free_blk = z.buddy.free_block_containing(pos); free_blk.has_value()) {
        const bool took = z.buddy.take_free_block(free_blk->first, free_blk->second);
        HPMMAP_ASSERT(took, "free_block_containing said this block was free");
        holes.push_back(Taken{free_blk->first, free_blk->second});
        pos = free_blk->first + BuddyAllocator::order_bytes(free_blk->second);
      } else {
        const auto cache_blk = z.cache.block_containing(pos);
        HPMMAP_ASSERT(cache_blk.has_value(), "window_movable guaranteed free-or-cache");
        const auto replacement = z.buddy.alloc(cache_blk->second);
        if (!replacement.has_value()) {
          // Out of migration targets: roll back the holes and give up.
          for (const Taken& h : holes) {
            z.buddy.free(h.addr, h.order);
          }
          z.compact_defer = 64;
          return std::nullopt;
        }
        z.cache.relocate(cache_blk->first, replacement->addr);
        outcome.compaction_migrated_bytes += BuddyAllocator::order_bytes(cache_blk->second);
        // The vacated frames become part of the window we now own.
        pos = cache_blk->first + BuddyAllocator::order_bytes(cache_blk->second);
      }
    }
    // The whole window is now allocated to us and physically contiguous.
    z.compact_defer = 0;
    return window.begin;
  }
  z.compact_defer = 64;
  return std::nullopt;
}

AllocOutcome MemorySystem::alloc_pages(ZoneId zone, unsigned order, bool allow_reclaim) {
  HPMMAP_ASSERT(zone < zones_.size(), "zone out of range");
  HPMMAP_ASSERT(order <= kLinuxMaxOrder, "order above Linux MAX_ORDER");
  ZoneState& z = zones_[zone];
  AllocOutcome outcome;
  // Injected buddy failure: the fast path refuses this call, forcing the
  // slow path (or, for opportunistic callers, an outright miss the
  // caller must absorb — THP falls back to 4K, faults retry).
  bool buddy_fail = verify::injector().should_fail(verify::InjectPoint::kBuddyAlloc);

  const auto try_fast = [&]() -> bool {
    // Respect the min watermark: the last reserve is for the reclaim
    // path itself (unless there is no cache left to reclaim anyway).
    if (below_min_watermark(zone) && z.cache.cached_bytes() > 0) {
      return false;
    }
    auto alloc = z.buddy.alloc(order);
    if (!alloc.has_value()) {
      return false;
    }
    outcome.addr = alloc->addr;
    outcome.ok = true;
    outcome.split_steps = alloc->split_steps;
    return true;
  };

  if (!buddy_fail && !below_low_watermark(zone) && try_fast()) {
    return outcome;
  }

  if (!allow_reclaim) {
    // Opportunistic path: take it only if no slow-path work is needed.
    if (!buddy_fail && !below_low_watermark(zone) && try_fast()) {
      return outcome;
    }
    return outcome;
  }

  // Slow path: direct reclaim toward the high watermark (2x low), then
  // compaction for order-9+, then retry.
  for (int attempt = 0; attempt < 3 && !outcome.ok; ++attempt) {
    if (buddy_fail || below_low_watermark(zone) || !z.buddy.can_alloc(order)) {
      buddy_fail = false; // the injected miss forces one reclaim pass, no more
      outcome.entered_reclaim = true;
      const auto target = static_cast<std::uint64_t>(
          2.0 * costs_.watermark_low * static_cast<double>(z.online_bytes));
      const std::uint64_t have = z.buddy.free_bytes();
      if (have < target) {
        if (verify::injector().should_fail(verify::InjectPoint::kDirectReclaim)) {
          // Injected: the LRU scan finds nothing evictable; the retry
          // loop continues to compaction / smaller-order fallback.
        } else {
          const PageCache::ShrinkResult shrink = z.cache.shrink(target - have);
          outcome.reclaim_clean_blocks += shrink.clean_blocks;
          outcome.reclaim_writeback_blocks += shrink.writeback_blocks;
          if (trace::on(trace::Category::kBuddy)) {
            trace::instant(trace::Category::kBuddy, "mm.direct_reclaim", 0, -1,
                           {trace::Arg::u64("zone", zone),
                            trace::Arg::u64("clean", shrink.clean_blocks),
                            trace::Arg::u64("writeback", shrink.writeback_blocks),
                            trace::Arg::u64("free_bytes", have)});
            ++trace::metrics().counter("mm.direct_reclaim");
          }
        }
      }
    }
    if (try_fast()) {
      return outcome;
    }
    if (order >= kLargePageOrder) {
      const std::uint64_t scanned_before = outcome.compaction_windows_scanned;
      if (auto window = run_compaction(z, outcome); window.has_value()) {
        if (trace::on(trace::Category::kBuddy)) {
          trace::instant(trace::Category::kBuddy, "mm.compaction", 0, -1,
                         {trace::Arg::u64("zone", zone),
                          trace::Arg::u64("windows",
                                          outcome.compaction_windows_scanned - scanned_before),
                          trace::Arg::u64("migrated_bytes", outcome.compaction_migrated_bytes),
                          trace::Arg::u64("ok", 1)});
          ++trace::metrics().counter("mm.compaction");
        }
        outcome.addr = *window;
        outcome.ok = true;
        return outcome;
      }
      break; // compaction failed: caller falls back to a smaller order
    }
    if (z.cache.cached_bytes() == 0) {
      break; // nothing left to reclaim
    }
  }
  return outcome;
}

unsigned MemorySystem::free_pages(ZoneId zone, Addr addr, unsigned order) {
  HPMMAP_ASSERT(zone < zones_.size(), "zone out of range");
  return zones_[zone].buddy.free(addr, order);
}

Cycles MemorySystem::alloc_cycles(const AllocOutcome& outcome, ZoneId zone) {
  Cycles c = costs_.buddy_base + outcome.split_steps * costs_.buddy_split_step;
  if (outcome.entered_reclaim) {
    const std::uint64_t batches =
        (outcome.reclaim_clean_blocks + outcome.reclaim_writeback_blocks + 31) / 32;
    c += std::max<std::uint64_t>(batches, 1) * costs_.reclaim_batch_base;
    if (outcome.reclaim_writeback_blocks > 0) {
      // Writeback congestion: heavy-tailed stall (the 16M-cycle stdev in
      // Figure 3's loaded small faults comes from here).
      const double stall = rng_.pareto(static_cast<double>(costs_.reclaim_writeback),
                                       costs_.reclaim_writeback_tail_alpha);
      c += static_cast<Cycles>(stall);
    }
  }
  if (outcome.entered_compaction) {
    // A deferred attempt is just a counter check; a real attempt scans
    // and migrates.
    c += outcome.compaction_deferred ? 400 : costs_.compact_attempt;
    c += zero_cost(zone, outcome.compaction_migrated_bytes, costs_.copy_bytes_per_cycle);
  }
  // Contended channels slow the scanning parts of reclaim as well.
  const double factor = bw_.contention_factor(zone);
  return static_cast<Cycles>(static_cast<double>(c) * factor);
}

Cycles MemorySystem::zero_cost(ZoneId zone, std::uint64_t size, double rate_bytes_per_cycle) {
  const double rate = bw_.effective_rate(zone, rate_bytes_per_cycle);
  return stream_cycles(size, rate);
}

std::uint64_t MemorySystem::kswapd_balance(ZoneId zone) {
  HPMMAP_ASSERT(zone < zones_.size(), "zone out of range");
  ZoneState& z = zones_[zone];
  if (!below_low_watermark(zone)) {
    return 0;
  }
  const auto target = static_cast<std::uint64_t>(
      2.0 * costs_.watermark_low * static_cast<double>(z.online_bytes));
  const std::uint64_t have = z.buddy.free_bytes();
  if (have >= target) {
    return 0;
  }
  const std::uint64_t freed = z.cache.shrink(target - have).bytes_freed;
  if (freed > 0 && trace::on(trace::Category::kBuddy)) {
    trace::instant(trace::Category::kBuddy, "mm.kswapd", 0, -1,
                   {trace::Arg::u64("zone", zone), trace::Arg::u64("bytes_freed", freed)});
    ++trace::metrics().counter("mm.kswapd_wakeups");
  }
  return freed;
}

} // namespace hpmmap::mm
