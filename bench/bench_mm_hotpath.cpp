// mm hot-path throughput, self-reported as JSON (BENCH_mm.json).
//
// Two storms, each timed bench::kTimedRuns times after a warmup:
//  - `faults_per_sec`: the Figure-2-shaped storm — sequential 4K
//    anonymous faults over an aged zone, with khugepaged-style 2M merges,
//    occasional THP splits, page-cache grow/shrink churn and page-walk
//    storms — through the mm structures shipped in src/linux_mm (bitmap
//    buddy freelists, page-cache LRU, packed radix page table).
//  - `node_faults_per_sec`: the fault path end to end — a 4K first-touch
//    storm through os::Node::touch_range on a small aged THP node, so the
//    fault handler, its runs, bulk frames, jitter and the anon LRU are
//    all timed. Each run boots and ages its own node (untimed).
// The medians are reported, with the min and max beside them. The
// numbers are host time, so they are compared only against another build
// run on the same host: CI's bench-smoke job builds the base commit and
// gates both keys with bench_diff. Every run of a storm must fold its
// work into the same digest, or the bench fails (exit 1).
//
// Usage: bench_mm_hotpath [--full] [--out-dir DIR]
#include <chrono>
#include <cstdio>
#include <optional>
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
#include "os/node.hpp"
#include "sim/engine.hpp"

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

/// The node storm: 160 MiB of first touches, in the 1 MiB slices the
/// workloads use, on a 512 MiB aged THP node (256 MiB zones). A read-only
/// page in each 2 MiB region splits the heap's VMA, so no region is
/// THP-eligible and every fault is the 4K fallback of a THP VMA, the
/// shape of a loaded Figure 7 node; the zone crosses its low watermark
/// on the way, so the storm also runs direct reclaim.
StormResult run_node_storm(std::uint64_t bytes) {
  sim::Engine engine;
  os::NodeConfig cfg;
  cfg.machine.ram_bytes = 512 * MiB;
  cfg.seed = 7;
  os::Node node(engine, cfg);
  os::Process& proc = node.spawn("storm", os::MmPolicy::kLinuxThp, 0, 1.0,
                                 mm::AddressSpace::ZonePolicy::kSingle, 0);
  const Addr heap = node.sys_mmap(proc, bytes, kProtRW, os::Node::Segment::kHeapData).addr;
  for (Addr region = heap; region < heap + bytes; region += kLargePageSize) {
    const Addr page = region + 300 * kSmallPageSize;
    HPMMAP_ASSERT(node.sys_mprotect(proc, page, kSmallPageSize, Prot::kRead).err == Errno::kOk,
                  "mprotect failed");
  }

  StormResult out;
  Cycles cost = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (Addr va = heap; va < heap + bytes; va += MiB) {
    cost += node.touch_range(proc, Range{va, va + MiB});
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.mix(cost);
  for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
    out.mix(proc.fault_stats().count[k]);
    out.mix(proc.fault_stats().total_cycles[k]);
  }
  out.mix(node.memory().free_bytes(0));
  out.mix(node.memory().cache(0).cached_bytes());
  out.mix(node.memory().rng().next_u64());
  return out;
}

/// Time `storm` bench::kTimedRuns times after a warmup run; each run must
/// fold the same work digest. Returns the rates (`work` per second), or
/// nothing after printing the digest mismatch.
template <typename Storm>
std::optional<bench::Spread> time_storm(const char* name, std::uint64_t work, Storm&& storm) {
  const std::uint64_t digest = storm().digest;
  std::vector<double> rates;
  for (int r = 0; r < bench::kTimedRuns; ++r) {
    const StormResult run = storm();
    if (run.digest != digest) {
      std::fprintf(stderr, "FAIL: %s run %d did different work (digest %016llx vs %016llx)\n",
                   name, r, static_cast<unsigned long long>(run.digest),
                   static_cast<unsigned long long>(digest));
      return std::nullopt;
    }
    rates.push_back(static_cast<double>(work) / run.wall_seconds);
  }
  const bench::Spread rate = bench::spread(rates);
  std::printf("%s: %10.0f faults/sec median of %d (min %.0f, max %.0f; %llu faults, "
              "digest %016llx)\n",
              name, rate.median, bench::kTimedRuns, rate.min, rate.max,
              static_cast<unsigned long long>(work), static_cast<unsigned long long>(digest));
  return rate;
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

  const std::uint64_t node_bytes = 160 * MiB;

  // The warmup runs also move first-touch heap noise out of the timed loops.
  const auto rate =
      time_storm("mm", faults, [&] { return run_storm(faults, zone_bytes); });
  const auto node_rate = time_storm("node", node_bytes / kSmallPageSize,
                                    [&] { return run_node_storm(node_bytes); });
  if (!rate.has_value() || !node_rate.has_value()) {
    return 1;
  }
  std::printf("\n");

  std::string j;
  j += "{\n";
  j += "  \"bench\": \"mm_hotpath\",\n";
  j += "  \"workload\": \"fig2-style fault storm: sequential 4K faults, khugepaged "
       "2M merges, THP splits, page-cache churn over an aged zone\",\n";
  j += "  \"faults\": " + std::to_string(faults) + ",\n";
  j += "  \"runs\": " + std::to_string(bench::kTimedRuns) + ",\n";
  j += "  \"faults_per_sec\": " + num(rate->median) + ",\n";
  j += "  \"faults_per_sec_min\": " + num(rate->min) + ",\n";
  j += "  \"faults_per_sec_max\": " + num(rate->max) + ",\n";
  j += "  \"node_workload\": \"4K first-touch storm through os::Node::touch_range: 160 MiB "
       "on a 512 MiB aged THP node, every 2 MiB region split by a read-only page\",\n";
  j += "  \"node_faults\": " + std::to_string(node_bytes / kSmallPageSize) + ",\n";
  j += "  \"node_faults_per_sec\": " + num(node_rate->median) + ",\n";
  j += "  \"node_faults_per_sec_min\": " + num(node_rate->min) + ",\n";
  j += "  \"node_faults_per_sec_max\": " + num(node_rate->max) + "\n";
  j += "}\n";
  if (!bench::write_bench_json(opt, "BENCH_mm.json", j)) {
    return 1;
  }
  return 0;
}
