// mm hot-path throughput, self-reported as JSON (BENCH_mm.json).
//
// Runs the Figure-2-shaped fault storm — sequential 4K anonymous faults
// over an aged zone, with khugepaged-style 2M merges, occasional THP
// splits, page-cache grow/shrink churn and page-walk storms — through the
// mm structures shipped in src/linux_mm (bitmap buddy freelists, page-cache
// LRU, packed radix page table).
//
// After a warmup the storm is timed bench::kTimedRuns times; the median
// is `faults_per_sec`, with the min and max beside it. The number is host
// time, so it is compared only against another build run on the same
// host: CI's bench-smoke job builds the base commit and gates this key
// with bench_diff. Every run must fold its allocated addresses and walk
// results into the same work digest, or the bench fails (exit 1).
//
// Usage: bench_mm_hotpath [--full] [--out-dir DIR]
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "linux_mm/buddy_allocator.hpp"
#include "linux_mm/page_cache.hpp"
#include "linux_mm/page_table.hpp"

namespace {

using namespace hpmmap;

constexpr unsigned kMaxOrder = 10;      // Linux zone allocator
constexpr unsigned kMergeOrder = 9;     // 2M
constexpr Addr kVBase = Addr{1} << 32;  // fault region base (2M-aligned)

struct StormResult {
  std::uint64_t digest = 0xcbf29ce484222325ull; // FNV-1a over alloc/walk addrs
  double wall_seconds = 0.0;

  void mix(std::uint64_t v) noexcept { digest = (digest ^ v) * 1099511628211ull; }
};

/// xorshift64* — deterministic churn schedule.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() noexcept {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1Dull;
  }
};

StormResult run_storm(std::uint64_t faults, std::uint64_t zone_bytes) {
  const Range zone{0, zone_bytes};
  mm::BuddyAllocator buddy(zone, kMaxOrder);
  mm::PageCache cache(buddy, 0.3);
  mm::PageTable pt;

  // --- setup (untimed): age the zone the way a booted, loaded node is
  // aged — long-lived slab-style allocations at mixed orders with churn,
  // then a page cache filled to ~45% of RAM. This is what makes order-9
  // assembly contested, per the paper's loaded-fault-cost argument.
  Rng rng{0x9e3779b97f4a7c15ull};
  std::vector<std::pair<Addr, unsigned>> slab;
  slab.reserve(4096);
  for (int i = 0; i < 20000; ++i) {
    if (slab.size() < 4000 && (rng.next() & 3u) != 0) {
      const unsigned o = static_cast<unsigned>(rng.next() % 4);
      if (auto a = buddy.alloc(o); a.has_value()) {
        slab.emplace_back(a->addr, o);
      }
    } else if (!slab.empty()) {
      const std::size_t k = rng.next() % slab.size();
      buddy.free(slab[k].first, slab[k].second);
      slab[k] = slab.back();
      slab.pop_back();
    }
  }
  cache.set_free_floor(zone_bytes / 16);
  cache.grow(zone_bytes * 45 / 100, 0, false);

  // --- the timed fault storm ---
  StormResult out;
  std::vector<Addr> region_phys(kSmallPagesPerLarge, 0);
  struct MergedRegion {
    Addr vbase;
    Addr phys;
    bool split;
  };
  std::vector<MergedRegion> merged; // FIFO working-set window
  merged.reserve(16);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < faults; ++i) {
    const Addr vaddr = kVBase + (i << 12);
    // Fault entry: the walk that missed.
    HPMMAP_ASSERT(!pt.walk(vaddr).has_value(), "fault on a mapped page");
    auto frame = buddy.alloc(0);
    if (!frame.has_value()) {
      // Direct reclaim: shrink the cache and retry.
      const auto r = cache.shrink(2 * MiB);
      HPMMAP_ASSERT(r.bytes_freed > 0, "storm wedged: no memory and no cache");
      frame = buddy.alloc(0);
      HPMMAP_ASSERT(frame.has_value(), "order-0 alloc failed after reclaim");
    }
    out.mix(frame->addr);
    region_phys[i % kSmallPagesPerLarge] = frame->addr;
    HPMMAP_ASSERT(pt.map(vaddr, frame->addr, PageSize::k4K, kProtRW) == Errno::kOk,
                  "4K map failed");

    // khugepaged: a 2M virtual region just filled with 4K leaves —
    // collapse it (unmap 512, free the scattered frames back through the
    // coalescer, take an order-9 block, install one PD leaf).
    if (i % kSmallPagesPerLarge == kSmallPagesPerLarge - 1) {
      const Addr vregion = align_down(vaddr, kLargePageSize);
      HPMMAP_ASSERT(pt.small_count_in_2m(vregion) == kSmallPagesPerLarge,
                    "merge candidate not fully populated");
      for (std::uint64_t j = 0; j < kSmallPagesPerLarge; ++j) {
        HPMMAP_ASSERT(pt.unmap(vregion + (j << 12), PageSize::k4K) == Errno::kOk,
                      "merge unmap failed");
        buddy.free(region_phys[j], 0);
      }
      auto big = buddy.alloc(kMergeOrder);
      while (!big.has_value()) {
        const auto r = cache.shrink(4 * MiB);
        HPMMAP_ASSERT(r.bytes_freed > 0, "storm wedged assembling a 2M block");
        big = buddy.alloc(kMergeOrder);
      }
      out.mix(big->addr);
      HPMMAP_ASSERT(pt.map(vregion, big->addr, PageSize::k2M, kProtRW) == Errno::kOk,
                    "2M collapse map failed");
      merged.push_back(MergedRegion{vregion, big->addr, false});
      // Every 8th merged region is immediately split back (mlock on a
      // THP region, §II-B): one PD leaf becomes 512 PTEs.
      if (merged.size() % 8 == 0) {
        HPMMAP_ASSERT(pt.split_large(vregion) == Errno::kOk, "split failed");
        merged.back().split = true;
      }
      // Bound the working set: retire the oldest merged region.
      if (merged.size() > 12) {
        const MergedRegion old = merged.front();
        merged.erase(merged.begin());
        if (old.split) {
          for (std::uint64_t j = 0; j < kSmallPagesPerLarge; ++j) {
            HPMMAP_ASSERT(pt.unmap(old.vbase + (j << 12), PageSize::k4K) == Errno::kOk,
                          "retire unmap failed");
            buddy.free(old.phys + (j << 12), 0); // re-coalesces to order 9
          }
        } else {
          HPMMAP_ASSERT(pt.unmap(old.vbase, PageSize::k2M) == Errno::kOk,
                        "retire unmap failed");
          buddy.free(old.phys, kMergeOrder);
        }
      }
    }

    // Competing page-cache fill (kernel-build file churn: the cache
    // refills toward its floor as fast as reclaim drains it) plus a
    // page-walk storm over the faulted region.
    if (i % 16 == 0) {
      cache.grow(64 * KiB, 0, false);
    }
    if (i % 64 == 0) {
      for (int k = 0; k < 8; ++k) {
        const Addr probe = kVBase + ((rng.next() % (i + 1)) << 12);
        if (const auto t = pt.walk(probe); t.has_value()) {
          out.mix(t->phys);
        }
      }
    }
    if (i % 512 == 511) {
      cache.shrink(MiB);
    }
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.mix(buddy.free_bytes());
  out.mix(cache.cached_bytes());
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

} // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_mode(opt, "mm hot-path throughput (JSON self-report)");

  const std::uint64_t faults = opt.full ? 4'000'000 : 1'000'000;
  const std::uint64_t zone_bytes = opt.full ? 2 * GiB : 512 * MiB;

  // Warm the heap so first-touch noise lands outside the timed loops.
  const std::uint64_t digest = run_storm(faults, zone_bytes).digest;
  std::vector<double> rates;
  for (int r = 0; r < bench::kTimedRuns; ++r) {
    const StormResult run = run_storm(faults, zone_bytes);
    if (run.digest != digest) {
      std::fprintf(stderr, "FAIL: storm run %d did different work (digest %016llx vs %016llx)\n",
                   r, static_cast<unsigned long long>(run.digest),
                   static_cast<unsigned long long>(digest));
      return 1;
    }
    rates.push_back(static_cast<double>(faults) / run.wall_seconds);
  }
  const bench::Spread rate = bench::spread(rates);
  std::printf("mm: %10.0f faults/sec median of %d (min %.0f, max %.0f; %llu faults, "
              "digest %016llx)\n\n",
              rate.median, bench::kTimedRuns, rate.min, rate.max,
              static_cast<unsigned long long>(faults),
              static_cast<unsigned long long>(digest));

  std::string j;
  j += "{\n";
  j += "  \"bench\": \"mm_hotpath\",\n";
  j += "  \"workload\": \"fig2-style fault storm: sequential 4K faults, khugepaged "
       "2M merges, THP splits, page-cache churn over an aged zone\",\n";
  j += "  \"faults\": " + std::to_string(faults) + ",\n";
  j += "  \"runs\": " + std::to_string(bench::kTimedRuns) + ",\n";
  j += "  \"faults_per_sec\": " + num(rate.median) + ",\n";
  j += "  \"faults_per_sec_min\": " + num(rate.min) + ",\n";
  j += "  \"faults_per_sec_max\": " + num(rate.max) + "\n";
  j += "}\n";
  if (!bench::write_bench_json(opt, "BENCH_mm.json", j)) {
    return 1;
  }
  return 0;
}
