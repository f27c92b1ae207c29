// Unit tests: demand-paging fault handler, THP (fault path, khugepaged,
// mlock splitting), HugeTLBfs pools, and the swap path.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "harness/result_fields.hpp"
#include "hw/bandwidth.hpp"
#include "hw/phys_mem.hpp"
#include "linux_mm/address_space.hpp"
#include "linux_mm/fault.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/memory_system.hpp"
#include "linux_mm/thp.hpp"
#include "os/node.hpp"
#include "sim/engine.hpp"
#include "snapshot/snapshot.hpp"

namespace hpmmap::mm {
namespace {

constexpr Addr kVa = 0x5000'0000'0000ull;

struct Fixture {
  hw::PhysicalMemory phys{2 * GiB, 2};
  hw::BandwidthModel bw{2, 5.6};
  CostModel costs{};
  MemorySystem ms{phys, bw, Rng(9), costs};
  sim::Engine engine;
  ThpService thp{ms, engine, [] { return 1.0; }};
  FaultHandler handler{ms, &thp, nullptr};
  AddressSpace as{1};

  Fixture() { as.set_zone_policy(AddressSpace::ZonePolicy::kSingle, 0, 2); }

  void add_vma(Addr begin, std::uint64_t len, bool thp_eligible, Prot prot = kProtRW) {
    Vma v;
    v.range = Range{begin, begin + len};
    v.prot = prot;
    v.kind = VmaKind::kAnon;
    v.thp_eligible = thp_eligible;
    ASSERT_EQ(as.vmas().insert(v), Errno::kOk);
  }
};

TEST(FaultHandler, NoVmaIsSegfault) {
  Fixture f;
  const FaultResult r = f.handler.handle(f.as, kVa, 0);
  EXPECT_EQ(r.err, Errno::kFault);
  EXPECT_EQ(r.kind, FaultKind::kInvalid);
}

TEST(FaultHandler, ProtNoneIsSegfault) {
  Fixture f;
  f.add_vma(kVa, 2 * MiB, false, Prot::kNone);
  const FaultResult r = f.handler.handle(f.as, kVa, 0);
  EXPECT_EQ(r.err, Errno::kFault);
}

TEST(FaultHandler, SmallFaultMapsAndCosts) {
  Fixture f;
  f.add_vma(kVa, 64 * KiB, false); // too small for THP
  const FaultResult r = f.handler.handle(f.as, kVa + 5000, 0);
  EXPECT_EQ(r.err, Errno::kOk);
  EXPECT_EQ(r.kind, FaultKind::kSmall);
  EXPECT_EQ(r.used, PageSize::k4K);
  // Idle-node small fault: Figure 2 territory (hundreds to a few
  // thousand cycles), never the large-page range.
  EXPECT_GT(r.cost, 500u);
  EXPECT_LT(r.cost, 50'000u);
  const auto t = f.as.page_table().walk(kVa + 5000);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size, PageSize::k4K);
}

TEST(FaultHandler, RepeatFaultOnMappedPageIsCheapSpurious) {
  Fixture f;
  f.add_vma(kVa, 64 * KiB, false);
  (void)f.handler.handle(f.as, kVa, 0);
  const FaultResult r = f.handler.handle(f.as, kVa, 0);
  EXPECT_EQ(r.err, Errno::kOk);
  EXPECT_LT(r.cost, 5'000u);
}

TEST(FaultHandler, ThpEligibleRegionGetsLargePage) {
  Fixture f;
  f.add_vma(align_down(kVa, kLargePageSize), 8 * MiB, true);
  const FaultResult r = f.handler.handle(f.as, align_down(kVa, kLargePageSize) + 12345, 0);
  EXPECT_EQ(r.err, Errno::kOk);
  EXPECT_EQ(r.kind, FaultKind::kLarge);
  EXPECT_EQ(r.used, PageSize::k2M);
  // 2 MiB zeroing dominates: hundreds of thousands of cycles (Fig 2).
  EXPECT_GT(r.cost, 100'000u);
}

TEST(FaultHandler, UnalignedVmaHeadFallsBackToSmall) {
  Fixture f;
  // VMA starts 4K past alignment: the first aligned 2M region is not
  // fully covered at its head -> the §II-A alignment problem.
  const Addr base = align_down(kVa, kLargePageSize) + 4 * KiB;
  f.add_vma(base, kLargePageSize, true);
  const FaultResult r = f.handler.handle(f.as, base, 0);
  EXPECT_EQ(r.used, PageSize::k4K);
}

TEST(FaultHandler, SmallFaultCountsAsMergeFollowerWhenLocked) {
  Fixture f;
  f.add_vma(kVa, 64 * KiB, false);
  f.as.lock_until(1'000'000);
  const FaultResult r = f.handler.handle(f.as, kVa, /*now=*/200'000);
  EXPECT_EQ(r.kind, FaultKind::kMergeFollower);
  EXPECT_EQ(r.lock_wait, 800'000u);
  EXPECT_GE(r.cost, 800'000u);
}

TEST(FaultHandler, SwappedPagePaysDiskRead) {
  Fixture f;
  f.add_vma(kVa, 64 * KiB, false);
  (void)f.handler.handle(f.as, kVa, 0);
  // Evict (what Node::maybe_swap does).
  const auto t = f.as.page_table().walk(kVa);
  ASSERT_TRUE(t.has_value());
  f.as.page_table().unmap(kVa, PageSize::k4K);
  f.ms.free_pages(0, align_down(t->phys, kSmallPageSize), 0);
  f.as.mark_swapped(kVa);
  const FaultResult r = f.handler.handle(f.as, kVa, 0);
  EXPECT_EQ(r.err, Errno::kOk);
  EXPECT_GT(r.cost, 1'000'000u); // disk, not DRAM
  // One-shot: the mark is consumed.
  EXPECT_EQ(f.as.swapped_pages(), 0u);
}

// --- fault runs ------------------------------------------------------------
//
// os::Node::touch_range faults a run of pages at a time (FaultRun). Touching
// the same pages one 4 KiB call at a time makes every run one page long:
// the one-page semantics of FaultHandler::handle(). Both must leave the
// same world behind, byte for byte.

/// An aged THP node whose zone 0 is a few MiB above its low watermark,
/// with a process holding a THP-eligible heap. In three of every four
/// 2 MiB regions one read-only page splits the VMA, so those regions
/// fall back to 4K and their runs end at VMA boundaries; the fourth
/// stays THP-eligible. A scatter of pages already touched in every other
/// region cuts the heap into runs of every length.
struct RunWorld {
  static constexpr std::uint64_t kHeapBytes = 64 * MiB;

  sim::Engine engine;
  os::Node node;
  os::Process* proc = nullptr;
  Addr heap = 0;

  static os::NodeConfig config() {
    os::NodeConfig cfg;
    cfg.machine.ram_bytes = 2 * GiB;
    cfg.seed = 11;
    cfg.boot_cache_fraction = 0.02; // little cache: reclaim soon turns to swap
    return cfg;
  }

  RunWorld() : node(engine, config()) {
    proc = &node.spawn("app", os::MmPolicy::kLinuxThp, 0, 1.0, AddressSpace::ZonePolicy::kSingle,
                       0);
    const auto out = node.sys_mmap(*proc, kHeapBytes, kProtRW, os::Node::Segment::kHeapData);
    EXPECT_EQ(out.err, Errno::kOk);
    heap = out.addr;
    for (std::uint64_t r = 0; r < kHeapBytes / kLargePageSize; ++r) {
      const Addr region = heap + r * kLargePageSize;
      if (r % 4 != 3) {
        EXPECT_EQ(node.sys_mprotect(*proc, region + 5 * kSmallPageSize, kSmallPageSize, Prot::kRead)
                      .err,
                  Errno::kOk);
      }
      if (r % 2 == 0) {
        for (Addr va = region; va < region + kLargePageSize; va += 37 * kSmallPageSize) {
          (void)node.touch_range(*proc, Range{va, va + kSmallPageSize});
        }
      }
    }
    // Hold kernel memory until zone 0 sits 6 MiB above its low watermark.
    const auto low = static_cast<std::uint64_t>(
        node.config().costs.watermark_low *
        static_cast<double>(node.memory().buddy(0).total_bytes()));
    while (node.memory().free_bytes(0) > low + 6 * MiB) {
      EXPECT_TRUE(node.kernel_alloc(0, 0).has_value());
    }
  }

  /// Every leaf as (vaddr, phys, size, prot).
  [[nodiscard]] std::vector<std::array<std::uint64_t, 4>> leaves() const {
    std::vector<std::array<std::uint64_t, 4>> out;
    proc->address_space().page_table().for_each_leaf([&](Addr va, const Translation& t) {
      out.push_back({va, t.phys, static_cast<std::uint64_t>(t.size),
                     static_cast<std::uint64_t>(t.prot)});
    });
    return out;
  }
};

TEST(FaultRun, MatchesOnePageAtATime) {
  RunWorld run;
  RunWorld paged;
  const std::uint64_t cache_before = run.node.memory().cache(0).cached_bytes();

  const Cycles run_cost =
      run.node.touch_range(*run.proc, Range{run.heap, run.heap + RunWorld::kHeapBytes});
  Cycles paged_cost = 0;
  for (Addr va = paged.heap; va < paged.heap + RunWorld::kHeapBytes; va += kSmallPageSize) {
    paged_cost += paged.node.touch_range(*paged.proc, Range{va, va + kSmallPageSize});
  }

  // The touch crossed into direct reclaim, and past it into swap, with
  // THP falling back to 4K.
  EXPECT_LT(run.node.memory().cache(0).cached_bytes(), cache_before);
  EXPECT_GT(run.node.swapped_out_total(), 0u);
  EXPECT_GT(run.node.thp()->stats().fault_huge_fallback, 1000u);
  // Some runs began with a 2 MiB THP fault; some pages swapped back in.
  EXPECT_GT(run.node.thp()->stats().fault_huge_success, 0u);
  EXPECT_GT(run.node.swapped_out_total(), run.proc->address_space().swapped_pages());

  EXPECT_EQ(run_cost, paged_cost);
  EXPECT_FALSE(harness::first_difference(run.proc->fault_stats(), paged.proc->fault_stats())
                   .has_value());
  EXPECT_FALSE(
      harness::first_difference(run.node.thp()->stats(), paged.node.thp()->stats()).has_value());
  EXPECT_TRUE(run.leaves() == paged.leaves());
  for (ZoneId z = 0; z < run.node.memory().zone_count(); ++z) {
    const auto diff = harness::first_difference(snapshot::capture_buddy(run.node.memory().buddy(z)),
                                                snapshot::capture_buddy(paged.node.memory().buddy(z)));
    EXPECT_FALSE(diff.has_value()) << "zone " << z << ": " << *diff;
  }
  EXPECT_EQ(run.node.memory().rng().next_u64(), paged.node.memory().rng().next_u64());
  const auto world =
      harness::first_difference(snapshot::capture_world(run.engine, {&run.node}),
                                snapshot::capture_world(paged.engine, {&paged.node}));
  EXPECT_FALSE(world.has_value()) << *world;
}

TEST(FaultStats, RecordsByKind) {
  FaultStats s;
  s.record(FaultKind::kSmall, 100);
  s.record(FaultKind::kSmall, 200);
  s.record(FaultKind::kLarge, 1000);
  EXPECT_EQ(s.count[0], 2u);
  EXPECT_EQ(s.total_cycles[0], 300u);
  EXPECT_EQ(s.count[1], 1u);
}

// --- THP service -----------------------------------------------------------------

TEST(Thp, RegionEligibilityRules) {
  Fixture f;
  const Addr base = align_down(kVa, kLargePageSize);
  f.add_vma(base, 4 * MiB, true);
  const Vma* vma = f.as.vmas().find(base);
  ASSERT_NE(vma, nullptr);
  EXPECT_TRUE(f.thp.region_eligible(f.as, *vma, base + 123));
  // Existing small mapping in the region kills eligibility.
  ASSERT_EQ(f.as.page_table().map(base + 8 * KiB, 0, PageSize::k4K, kProtRW), Errno::kOk);
  EXPECT_FALSE(f.thp.region_eligible(f.as, *vma, base + 123));
  // Other regions unaffected.
  EXPECT_TRUE(f.thp.region_eligible(f.as, *vma, base + 2 * MiB));
}

TEST(Thp, LockedVmaNotEligible) {
  Fixture f;
  const Addr base = align_down(kVa, kLargePageSize);
  f.add_vma(base, 4 * MiB, true);
  auto pieces = f.as.vmas().remove(Range{base, base + 4 * MiB});
  for (auto& p : pieces) {
    p.locked = true;
    ASSERT_EQ(f.as.vmas().insert(p), Errno::kOk);
  }
  const Vma* vma = f.as.vmas().find(base);
  EXPECT_FALSE(f.thp.region_eligible(f.as, *vma, base));
}

TEST(Thp, MergeCompletesAndInstallsLargeLeaf) {
  Fixture f;
  f.thp.register_process(&f.as);
  const Addr base = align_down(kVa, kLargePageSize);
  f.add_vma(base, 2 * MiB, true);
  // Map 256 small pages so the region is a merge candidate.
  for (unsigned i = 0; i < 256; ++i) {
    const AllocOutcome out = f.ms.alloc_pages(0, 0);
    ASSERT_TRUE(out.ok);
    ASSERT_EQ(f.as.page_table().map(base + i * 4 * KiB, out.addr, PageSize::k4K, kProtRW),
              Errno::kOk);
  }
  f.thp.note_fallback(&f.as, base);
  f.thp.scan_once();
  f.engine.run_until(f.engine.now() + 1'000'000'000ull);
  EXPECT_EQ(f.thp.stats().merges_completed, 1u);
  const auto t = f.as.page_table().walk(base + 1 * MiB);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size, PageSize::k2M);
  EXPECT_EQ(f.as.page_table().small_count_in_2m(base), 0u);
}

TEST(Thp, MergeLocksAddressSpaceWhileRunning) {
  Fixture f;
  f.thp.register_process(&f.as);
  const Addr base = align_down(kVa, kLargePageSize);
  f.add_vma(base, 2 * MiB, true);
  for (unsigned i = 0; i < 256; ++i) {
    const AllocOutcome out = f.ms.alloc_pages(0, 0);
    ASSERT_TRUE(out.ok);
    ASSERT_EQ(f.as.page_table().map(base + i * 4 * KiB, out.addr, PageSize::k4K, kProtRW),
              Errno::kOk);
  }
  f.thp.note_fallback(&f.as, base);
  f.thp.scan_once();
  // Step forward in small increments; the AS must be observed locked at
  // some point before the merge completes.
  bool saw_lock = false;
  for (int i = 0; i < 400 && f.thp.stats().merges_completed == 0; ++i) {
    f.engine.run_until(f.engine.now() + 100'000);
    saw_lock = saw_lock || f.as.locked_at(f.engine.now());
  }
  EXPECT_TRUE(saw_lock);
  EXPECT_GT(f.thp.stats().total_merge_lock_cycles, 0u);
}

TEST(Thp, MergeAbortsWhenRegionMunmapped) {
  Fixture f;
  f.thp.register_process(&f.as);
  const Addr base = align_down(kVa, kLargePageSize);
  f.add_vma(base, 2 * MiB, true);
  std::vector<Addr> frames;
  for (unsigned i = 0; i < 256; ++i) {
    const AllocOutcome out = f.ms.alloc_pages(0, 0);
    ASSERT_TRUE(out.ok);
    frames.push_back(out.addr);
    ASSERT_EQ(f.as.page_table().map(base + i * 4 * KiB, out.addr, PageSize::k4K, kProtRW),
              Errno::kOk);
  }
  const std::uint64_t free_before_merge = f.ms.free_bytes(0);
  f.thp.note_fallback(&f.as, base);
  f.thp.scan_once();
  // Remove the VMA before the merge completes.
  f.as.vmas().remove(Range{base, base + 2 * MiB});
  f.engine.run_until(f.engine.now() + 1'000'000'000ull);
  EXPECT_EQ(f.thp.stats().merges_completed, 0u);
  // The pre-allocated huge page went back: free memory did not leak.
  EXPECT_EQ(f.ms.free_bytes(0), free_before_merge);
}

TEST(Thp, UnregisterCancelsPendingWork) {
  Fixture f;
  f.thp.register_process(&f.as);
  f.thp.note_fallback(&f.as, align_down(kVa, kLargePageSize));
  f.thp.unregister_process(&f.as);
  f.thp.scan_once(); // must not touch the unregistered space
  f.engine.run_until(f.engine.now() + 1'000'000'000ull);
  EXPECT_EQ(f.thp.stats().merges_completed, 0u);
}

TEST(Thp, SplitForMlockBreaksLargePages) {
  Fixture f;
  const Addr base = align_down(kVa, kLargePageSize);
  f.add_vma(base, 4 * MiB, true);
  const AllocOutcome out = f.ms.alloc_pages(0, kLargePageOrder);
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(f.as.page_table().map(base, out.addr, PageSize::k2M, kProtRW), Errno::kOk);
  const unsigned splits = f.thp.split_for_mlock(f.as, Range{base, base + 2 * MiB});
  EXPECT_EQ(splits, 1u);
  const auto t = f.as.page_table().walk(base + 1 * MiB);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size, PageSize::k4K); // §II-B: pinning splits THP pages
  EXPECT_EQ(f.thp.stats().split_on_mlock, 1u);
}

// --- HugeTLBfs -------------------------------------------------------------------

TEST(Hugetlb, BootReservationSizesPools) {
  Fixture f;
  HugetlbPool pool(f.ms, 256 * MiB);
  EXPECT_EQ(pool.total_pages(0), 128u);
  EXPECT_EQ(pool.total_pages(1), 128u);
  EXPECT_EQ(pool.free_pages(0), 128u);
  EXPECT_EQ(pool.stats().pool_pages_total, 256u);
}

TEST(Hugetlb, AllocPrefersRequestedZoneThenSpills) {
  Fixture f;
  HugetlbPool pool(f.ms, 8 * MiB); // 4 pages per zone
  for (int i = 0; i < 4; ++i) {
    const auto page = pool.alloc_page(0);
    ASSERT_TRUE(page.has_value());
    EXPECT_EQ(page->second, 0u);
  }
  const auto spilled = pool.alloc_page(0);
  ASSERT_TRUE(spilled.has_value());
  EXPECT_EQ(spilled->second, 1u); // zone 0 empty -> zone 1
}

TEST(Hugetlb, ExhaustionReturnsNullopt) {
  Fixture f;
  HugetlbPool pool(f.ms, 4 * MiB);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.alloc_page(0).has_value());
  }
  EXPECT_FALSE(pool.alloc_page(0).has_value());
  EXPECT_EQ(pool.stats().pool_exhausted, 1u);
}

TEST(Hugetlb, FreeReturnsToPool) {
  Fixture f;
  HugetlbPool pool(f.ms, 4 * MiB);
  const auto page = pool.alloc_page(1);
  ASSERT_TRUE(page.has_value());
  pool.free_page(page->second, page->first);
  EXPECT_EQ(pool.free_pages(1), 2u);
}

TEST(Hugetlb, FaultOnHugetlbVmaUsesPoolPage) {
  Fixture f;
  HugetlbPool pool(f.ms, 64 * MiB);
  FaultHandler handler(f.ms, &f.thp, &pool);
  Vma v;
  const Addr base = align_down(kVa, kLargePageSize);
  v.range = Range{base, base + 4 * MiB};
  v.prot = kProtRW;
  v.kind = VmaKind::kHugetlb;
  ASSERT_EQ(f.as.vmas().insert(v), Errno::kOk);
  const std::uint64_t pool_before = pool.free_pages(0);
  const FaultResult r = handler.handle(f.as, base + 100, 0);
  EXPECT_EQ(r.err, Errno::kOk);
  EXPECT_EQ(r.kind, FaultKind::kLarge);
  EXPECT_EQ(r.used, PageSize::k2M);
  EXPECT_EQ(pool.free_pages(0), pool_before - 1);
  // HugeTLBfs faults are pricier than THP faults (slower zeroing, extra
  // reservation work) — the Figure 3 vs Figure 2 "Large" relation.
  EXPECT_GT(r.cost, 300'000u);
}

TEST(Hugetlb, PoolMemoryIsLoadInsensitive) {
  // Large-fault cost barely moves under bandwidth pressure (the pool is
  // never contended for capacity; only the zeroing shares the channel).
  Fixture f;
  HugetlbPool pool(f.ms, 64 * MiB);
  FaultHandler handler(f.ms, &f.thp, &pool);
  Vma v;
  const Addr base = align_down(kVa, kLargePageSize);
  v.range = Range{base, base + 32 * MiB};
  v.prot = kProtRW;
  v.kind = VmaKind::kHugetlb;
  ASSERT_EQ(f.as.vmas().insert(v), Errno::kOk);

  RunningStats idle;
  for (std::uint64_t i = 0; i < 8; ++i) {
    idle.add(static_cast<double>(handler.handle(f.as, base + i * 2 * MiB, 0).cost));
  }
  // Competing demand on the zone.
  auto c = f.bw.register_consumer();
  f.bw.set_demand(c, 0, 12.0);
  RunningStats loaded;
  for (std::uint64_t i = 8; i < 16; ++i) {
    loaded.add(static_cast<double>(handler.handle(f.as, base + i * 2 * MiB, 0).cost));
  }
  EXPECT_LT(loaded.mean(), idle.mean() * 8.0); // grows, but no reclaim blowup
  EXPECT_GT(loaded.mean(), idle.mean());       // and it does share the channel
}

} // namespace
} // namespace hpmmap::mm
