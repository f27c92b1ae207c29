// Integration tests: the Node's syscall dispatch, fault accounting,
// memory conservation, mlock, swapping, and process lifecycle.
#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/mem_map.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "os/anon_lru.hpp"
#include "os/node.hpp"
#include "sim/engine.hpp"

namespace hpmmap::os {
namespace {

NodeConfig small_config() {
  NodeConfig cfg;
  cfg.machine = hw::dell_r415();
  cfg.machine.ram_bytes = 4 * GiB; // keep tests fast
  cfg.seed = 5;
  cfg.aged_boot = false; // deterministic clean-slate tests
  return cfg;
}

Process& spawn_app(Node& node, MmPolicy policy) {
  return node.spawn("app", policy, 0, 1.0, mm::AddressSpace::ZonePolicy::kSingle, 0);
}

TEST(Node, SpawnCreatesCanonicalLayout) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const mm::VmaTree& vmas = p.address_space().vmas();
  EXPECT_NE(vmas.find(mm::AddressLayout::kTextBase), nullptr);
  EXPECT_NE(vmas.find(mm::AddressLayout::kStackTop - 4096), nullptr);
  EXPECT_GT(p.address_space().heap_base(), mm::AddressLayout::kTextBase);
}

TEST(Node, LinuxMmapCreatesVmaWithoutBacking) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const auto out = node.sys_mmap(p, 8 * MiB, kProtRW, Node::Segment::kHeapData);
  ASSERT_EQ(out.err, Errno::kOk);
  EXPECT_NE(p.address_space().vmas().find(out.addr), nullptr);
  // Demand paging: nothing mapped until touched (§II-A).
  EXPECT_FALSE(p.address_space().page_table().walk(out.addr).has_value());
}

TEST(Node, TouchRangeFaultsEveryPageOnce) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxPlain);
  const auto out = node.sys_mmap(p, 1 * MiB, kProtRW, Node::Segment::kHeapData);
  ASSERT_EQ(out.err, Errno::kOk);
  const Cycles c1 = node.touch_range(p, Range{out.addr, out.addr + 1 * MiB});
  EXPECT_EQ(p.fault_stats().count[0], 256u); // 1 MiB / 4K, THP off
  EXPECT_GT(c1, 0u);
  // Second touch: all mapped, no new faults.
  (void)node.touch_range(p, Range{out.addr, out.addr + 1 * MiB});
  EXPECT_EQ(p.fault_stats().count[0], 256u);
}

TEST(Node, ThpPolicyUsesLargePages) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const auto out = node.sys_mmap(p, 16 * MiB, kProtRW, Node::Segment::kHeapData);
  ASSERT_EQ(out.err, Errno::kOk);
  (void)node.touch_range(p, Range{out.addr, out.addr + 16 * MiB});
  const auto mix = p.address_space().mapping_mix();
  EXPECT_GT(mix.bytes_2m, 8 * MiB); // mostly large on a pristine node
}

TEST(Node, PlainPolicyNeverGetsLargePages) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxPlain);
  const auto out = node.sys_mmap(p, 16 * MiB, kProtRW, Node::Segment::kHeapData);
  (void)node.touch_range(p, Range{out.addr, out.addr + 16 * MiB});
  EXPECT_EQ(p.address_space().mapping_mix().bytes_2m, 0u);
}

TEST(Node, MunmapReturnsFramesToBuddy) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const std::uint64_t free_before = node.memory().free_bytes(0) + node.memory().free_bytes(1);
  const auto out = node.sys_mmap(p, 8 * MiB, kProtRW, Node::Segment::kHeapData);
  (void)node.touch_range(p, Range{out.addr, out.addr + 8 * MiB});
  EXPECT_LT(node.memory().free_bytes(0) + node.memory().free_bytes(1), free_before);
  (void)node.sys_munmap(p, out.addr, 8 * MiB);
  EXPECT_EQ(node.memory().free_bytes(0) + node.memory().free_bytes(1), free_before);
  EXPECT_TRUE(node.memory().buddy(0).check_consistency());
}

TEST(Node, BrkGrowsHeapDemandPaged) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const auto base = node.sys_brk(p, 0);
  const auto grown = node.sys_brk(p, base.addr + 4 * MiB);
  ASSERT_EQ(grown.err, Errno::kOk);
  EXPECT_NE(p.address_space().vmas().find(base.addr), nullptr);
  EXPECT_FALSE(p.address_space().page_table().walk(base.addr).has_value());
  (void)node.touch_range(p, Range{base.addr, base.addr + 4 * MiB});
  EXPECT_GT(p.address_space().rss_bytes(), 0u);
}

TEST(Node, HpmmapPolicyRoutesThroughModule) {
  sim::Engine engine;
  NodeConfig cfg = small_config();
  core::ModuleConfig mod;
  mod.offline_bytes_per_zone = 512 * MiB;
  cfg.hpmmap = mod;
  Node node(engine, cfg);
  Process& p = spawn_app(node, MmPolicy::kHpmmap);
  const auto out = node.sys_mmap(p, 8 * MiB, kProtRW, Node::Segment::kHeapData);
  ASSERT_EQ(out.err, Errno::kOk);
  EXPECT_TRUE(core::HpmmapModule::in_window(out.addr));
  // Immediately backed: zero faults on touch.
  (void)node.touch_range(p, Range{out.addr, out.addr + 8 * MiB});
  EXPECT_EQ(p.fault_stats().count[0], 0u);
  EXPECT_EQ(p.fault_stats().count[1], 0u);
}

TEST(Node, HpmmapStackStaysWithLinux) {
  sim::Engine engine;
  NodeConfig cfg = small_config();
  core::ModuleConfig mod;
  mod.offline_bytes_per_zone = 512 * MiB;
  cfg.hpmmap = mod;
  Node node(engine, cfg);
  Process& p = spawn_app(node, MmPolicy::kHpmmap);
  const Addr stack_page = mm::AddressLayout::kStackTop - 8 * KiB;
  (void)node.touch_range(p, Range{stack_page, stack_page + 8 * KiB});
  // Stack faults went through Linux (HPMMAP interposes only the
  // address-space syscalls; the stack was created by exec).
  EXPECT_EQ(p.fault_stats().count[0], 2u);
}

TEST(Node, HugetlbfsPolicyBacksDataWithPool) {
  sim::Engine engine;
  NodeConfig cfg = small_config();
  cfg.thp_enabled = false;
  cfg.hugetlb_pool_per_zone = 512 * MiB;
  cfg.hugetlbfs_small_spill = 0.0; // deterministic for this test
  Node node(engine, cfg);
  Process& p = spawn_app(node, MmPolicy::kHugetlbfs);
  const auto out = node.sys_mmap(p, 8 * MiB, kProtRW, Node::Segment::kHeapData);
  ASSERT_EQ(out.err, Errno::kOk);
  const mm::Vma* vma = p.address_space().vmas().find(out.addr);
  ASSERT_NE(vma, nullptr);
  EXPECT_EQ(vma->kind, mm::VmaKind::kHugetlb);
  const std::uint64_t pool_before = node.hugetlb()->free_pages(0);
  (void)node.touch_range(p, Range{out.addr, out.addr + 8 * MiB});
  EXPECT_EQ(node.hugetlb()->free_pages(0), pool_before - 4);
  EXPECT_EQ(p.fault_stats().count[1], 4u); // 4 large faults
}

TEST(Node, HugetlbfsStackNeverPoolBacked) {
  sim::Engine engine;
  NodeConfig cfg = small_config();
  cfg.thp_enabled = false;
  cfg.hugetlb_pool_per_zone = 512 * MiB;
  Node node(engine, cfg);
  Process& p = spawn_app(node, MmPolicy::kHugetlbfs);
  const auto out = node.sys_mmap(p, 8 * MiB, kProtRW, Node::Segment::kStack);
  ASSERT_EQ(out.err, Errno::kOk);
  EXPECT_NE(p.address_space().vmas().find(out.addr)->kind, mm::VmaKind::kHugetlb);
}

TEST(Node, MprotectSplitsVmaAndDefeatsThp) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const auto out = node.sys_mmap(p, 8 * MiB, kProtRW, Node::Segment::kHeapData);
  // Change permissions on an interior 4K page: the VMA splits into
  // three, and the aligned 2M region around the split can no longer be
  // huge-mapped (§II-A permission conflicts).
  const Addr mid = out.addr + 4 * MiB + 4 * KiB;
  const auto prot = node.sys_mprotect(p, mid, 4 * KiB, Prot::kRead);
  ASSERT_EQ(prot.err, Errno::kOk);
  (void)node.touch_range(p, Range{out.addr, out.addr + 8 * MiB});
  const auto t = p.address_space().page_table().walk(align_down(mid, kLargePageSize));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size, PageSize::k4K);
}

TEST(Node, MlockPopulatesSplitsAndPins) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const auto out = node.sys_mmap(p, 4 * MiB, kProtRW, Node::Segment::kHeapData);
  (void)node.touch_range(p, Range{out.addr, out.addr + 4 * MiB});
  ASSERT_GT(p.address_space().mapping_mix().bytes_2m, 0u);
  const auto lock = node.sys_mlock(p, out.addr, 4 * MiB);
  ASSERT_EQ(lock.err, Errno::kOk);
  // §II-B: pinning splits every large page.
  EXPECT_EQ(p.address_space().mapping_mix().bytes_2m, 0u);
  const mm::Vma* vma = p.address_space().vmas().find(out.addr);
  ASSERT_NE(vma, nullptr);
  EXPECT_TRUE(vma->locked);
}

TEST(Node, ExitProcessReleasesEverything) {
  sim::Engine engine;
  Node node(engine, small_config());
  const std::uint64_t free_before = node.memory().free_bytes(0) + node.memory().free_bytes(1);
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const auto out = node.sys_mmap(p, 16 * MiB, kProtRW, Node::Segment::kHeapData);
  (void)node.touch_range(p, Range{out.addr, out.addr + 16 * MiB});
  node.exit_process(p);
  EXPECT_FALSE(p.alive());
  EXPECT_EQ(node.memory().free_bytes(0) + node.memory().free_bytes(1), free_before);
}

TEST(Node, HpmmapExitUnregistersFromModule) {
  sim::Engine engine;
  NodeConfig cfg = small_config();
  core::ModuleConfig mod;
  mod.offline_bytes_per_zone = 512 * MiB;
  cfg.hpmmap = mod;
  Node node(engine, cfg);
  Process& p = spawn_app(node, MmPolicy::kHpmmap);
  (void)node.sys_mmap(p, 32 * MiB, kProtRW, Node::Segment::kHeapData);
  node.exit_process(p);
  EXPECT_FALSE(node.hpmmap_module()->handles(p.pid()));
  EXPECT_TRUE(node.hpmmap_module()->allocator().all_free());
}

TEST(Node, KernelAllocFreeRoundTrip) {
  sim::Engine engine;
  Node node(engine, small_config());
  const std::uint64_t free_before = node.memory().free_bytes(0);
  const auto addr = node.kernel_alloc(0, 4);
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(node.memory().free_bytes(0), free_before - 64 * KiB);
  node.kernel_free(0, *addr, 4);
  EXPECT_EQ(node.memory().free_bytes(0), free_before);
}

TEST(Node, ComputeBurstDilatesUnderOvercommit) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const Cycles idle = node.compute_burst(p, 10'000'000, 0, 0.95);
  // Pile unpinned demand onto every core.
  std::vector<Scheduler::ThreadId> jobs;
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(node.scheduler().add_thread(-1, 1.0));
  }
  const Cycles loaded = node.compute_burst(p, 10'000'000, 0, 0.95);
  EXPECT_GT(loaded, idle * 2);
  for (auto id : jobs) {
    node.scheduler().remove_thread(id);
  }
}

TEST(Node, ComputeBurstChargesTranslationCosts) {
  sim::Engine engine;
  Node node(engine, small_config());
  // Same working-set size, different mapping mixes.
  Process& small_proc = spawn_app(node, MmPolicy::kLinuxPlain);
  Process& large_proc = node.spawn("app2", MmPolicy::kLinuxThp, 1, 1.0,
                                   mm::AddressSpace::ZonePolicy::kSingle, 0);
  const auto a = node.sys_mmap(small_proc, 256 * MiB, kProtRW, Node::Segment::kHeapData);
  const auto b = node.sys_mmap(large_proc, 256 * MiB, kProtRW, Node::Segment::kHeapData);
  (void)node.touch_range(small_proc, Range{a.addr, a.addr + 256 * MiB});
  (void)node.touch_range(large_proc, Range{b.addr, b.addr + 256 * MiB});
  const Cycles c_small = node.compute_burst(small_proc, 10'000'000, 3'000'000, 0.95);
  const Cycles c_large = node.compute_burst(large_proc, 10'000'000, 3'000'000, 0.95);
  EXPECT_GT(c_small, c_large); // 4K translation costs more (§II)
}

TEST(Node, SwapNeverTouchesOfflinedFrames) {
  // HPMMAP memory is invisible to reclaim: even under brutal pressure,
  // offlined frames are never evicted (§III-A isolation).
  sim::Engine engine;
  NodeConfig cfg = small_config();
  core::ModuleConfig mod;
  mod.offline_bytes_per_zone = 1 * GiB; // leave Linux 1 GiB per zone
  cfg.hpmmap = mod;
  Node node(engine, cfg);
  Process& hpc = spawn_app(node, MmPolicy::kHpmmap);
  const auto region = node.sys_mmap(hpc, 256 * MiB, kProtRW, Node::Segment::kHeapData);
  ASSERT_EQ(region.err, Errno::kOk);

  // Linux-side process creates pressure: anon pages past zone 0's low
  // watermark (4% of its 1 GiB), with no page cache left to reclaim, so
  // reclaim evicts the hog's oldest pages to swap.
  Process& hog = node.spawn("hog", MmPolicy::kLinuxPlain, 1, 1.0,
                            mm::AddressSpace::ZonePolicy::kSingle, 0);
  constexpr std::uint64_t kHogBytes = 1000 * MiB;
  const auto hog_mem = node.sys_mmap(hog, kHogBytes, kProtRW, Node::Segment::kHeapData);
  (void)node.touch_range(hog, Range{hog_mem.addr, hog_mem.addr + kHogBytes});
  EXPECT_GT(hog.address_space().swapped_pages(), 0u);

  // The swapping never reached the HPMMAP mappings.
  for (Addr va = region.addr; va < region.addr + 256 * MiB; va += kLargePageSize) {
    EXPECT_TRUE(hpc.address_space().page_table().walk(va).has_value());
  }
  EXPECT_EQ(hpc.address_space().swapped_pages(), 0u);
}

TEST(Node, HugetlbfsWorldSwapsItsNonPoolSide) {
  // E2's "Load, Small" storm: a HugeTLBfs node whose pool is reserved at
  // boot, with a commodity hog driving the rest of zone 0 past its low
  // watermark and no page cache left to reclaim. The hog's oldest pages
  // go to swap and refault with a disk read; the pool stays out of it.
  sim::Engine engine;
  NodeConfig cfg = small_config();
  cfg.hugetlb_pool_per_zone = 512 * MiB;
  Node node(engine, cfg);
  mm::HugetlbPool& pool = *node.hugetlb();
  Process& hpc = spawn_app(node, MmPolicy::kHugetlbfs);
  const auto region = node.sys_mmap(hpc, 128 * MiB, kProtRW, Node::Segment::kHeapData);
  ASSERT_EQ(region.err, Errno::kOk);
  (void)node.touch_range(hpc, Range{region.addr, region.addr + 128 * MiB});
  const std::uint64_t pool_free = pool.free_pages(0);
  ASSERT_LT(pool_free, pool.total_pages(0)) << "the app must hold pool pages";

  // Zone 0 has 2 GiB, 512 MiB of it pooled: the hog asks for all the rest.
  Process& hog = node.spawn("hog", MmPolicy::kLinuxPlain, 1, 1.0,
                            mm::AddressSpace::ZonePolicy::kSingle, 0);
  constexpr std::uint64_t kHogBytes = 1536 * MiB;
  const auto hog_mem = node.sys_mmap(hog, kHogBytes, kProtRW, Node::Segment::kHeapData);
  ASSERT_EQ(hog_mem.err, Errno::kOk);
  (void)node.touch_range(hog, Range{hog_mem.addr, hog_mem.addr + kHogBytes});
  ASSERT_GT(hog.address_space().swapped_pages(), 0u);
  EXPECT_GT(node.swapped_out_total(), 0u);

  // The oldest page went first; touching it again takes the swap-in path.
  const Addr first = hog_mem.addr;
  ASSERT_TRUE(hog.address_space().is_swapped(first));
  const Cycles refault = node.touch_range(hog, Range{first, first + kSmallPageSize});
  EXPECT_FALSE(hog.address_space().is_swapped(first));
  EXPECT_TRUE(hog.address_space().page_table().walk(first).has_value());
  EXPECT_GT(refault, node.memory().costs().swap_in_mean / 100) << "no disk read was paid";

  // The pool kept its count and every free page its kHugetlbPool head;
  // the app's pool pages are still mapped, none swapped.
  EXPECT_EQ(pool.free_pages(0), pool_free);
  const hw::MemMap& map = node.memory().buddy(0).mem_map();
  std::uint64_t walked = 0;
  pool.for_each_pool_page(0, [&](Addr a) {
    EXPECT_EQ(map.state(map.index_of(a)), hw::FrameState::kHugetlbPool) << a;
    ++walked;
  });
  EXPECT_EQ(walked, pool_free);
  for (Addr va = region.addr; va < region.addr + 128 * MiB; va += kLargePageSize) {
    const auto t = hpc.address_space().page_table().walk(va);
    ASSERT_TRUE(t.has_value()) << va;
  }
  EXPECT_EQ(hpc.address_space().swapped_pages(), 0u);
}

TEST(Node, AgedBootFragmentsAndFillsCache) {
  sim::Engine engine;
  NodeConfig cfg = small_config();
  cfg.aged_boot = true;
  Node node(engine, cfg);
  EXPECT_GT(node.memory().cache(0).cached_bytes(), 100 * MiB);
  EXPECT_GT(node.memory().buddy(0).fragmentation(), 0.01);
  // Slab stays allocated: free + cache < online.
  EXPECT_LT(node.memory().free_bytes(0) + node.memory().cache(0).cached_bytes(),
            node.memory().buddy(0).total_bytes());
}

// --- the swap model's anon LRU -------------------------------------------
//
// AnonLru stores runs of consecutive pages; it must pop exactly the page
// sequence a per-page FIFO of (pid, page) pairs would, with the same cap.

struct LruModel {
  AnonLru lru;
  std::deque<std::pair<Pid, Addr>> model;

  void push(Pid pid, Addr page) {
    lru.push(pid, page);
    if (model.size() < AnonLru::kCap) {
      model.emplace_back(pid, page);
    }
  }
  /// Pop one page from both; false (after recording a failure) on a
  /// mismatch.
  bool pop() {
    const std::pair<Pid, Addr> got = lru.pop();
    const std::pair<Pid, Addr> want = model.front();
    model.pop_front();
    if (got != want) {
      ADD_FAILURE() << "popped pid " << got.first << " page 0x" << std::hex << got.second
                    << ", the FIFO model pid " << std::dec << want.first << " page 0x"
                    << std::hex << want.second;
      return false;
    }
    return true;
  }
  [[nodiscard]] bool sizes_agree() const {
    return lru.size() == model.size() && lru.empty() == model.empty();
  }
};

TEST(AnonLruDifferential, MixedPushesAndPopsMatchAPageFifo) {
  LruModel m;
  Rng rng(17);
  // Ranks of one job share a virtual layout, so pids 1000 and 1002 fault
  // the same addresses.
  constexpr Pid kPids = 4;
  Addr cursor[kPids] = {0x100000, 0x40000000, 0x100000, 0x7f0000000};
  Pid pid = 0;
  Addr newest = 0;
  for (int step = 0; step < 50'000; ++step) {
    const std::uint64_t r = rng.uniform(100);
    if (r < 40) { // the next page of the same process
      cursor[pid] += kSmallPageSize;
    } else if (r < 50) { // another process interleaves
      pid = static_cast<Pid>(rng.uniform(kPids));
      cursor[pid] += kSmallPageSize;
    } else if (r < 55) { // another process faults the page after the newest
      pid = (pid + 1 + static_cast<Pid>(rng.uniform(kPids - 1))) % kPids;
      cursor[pid] = newest + kSmallPageSize;
    } else if (r < 65) { // a gap in the same process
      cursor[pid] += kSmallPageSize * rng.uniform(2, 9);
    } else if (r < 70) { // backwards, or the same page again
      cursor[pid] -= kSmallPageSize * rng.uniform(0, 2);
    } else {
      for (std::uint64_t k = rng.uniform(1, 4); k > 0 && !m.model.empty(); --k) {
        ASSERT_TRUE(m.pop()) << "at step " << step;
      }
      ASSERT_TRUE(m.sizes_agree()) << "at step " << step;
      continue;
    }
    m.push(1000 + pid, cursor[pid]);
    newest = cursor[pid];
    ASSERT_TRUE(m.sizes_agree()) << "at step " << step;
  }
  EXPECT_LT(m.lru.run_count(), m.lru.size()); // consecutive pages did share runs
  while (!m.model.empty()) {
    ASSERT_TRUE(m.pop());
    ASSERT_TRUE(m.sizes_agree());
  }
  EXPECT_TRUE(m.lru.empty());
  EXPECT_EQ(m.lru.run_count(), 0u);
}

TEST(AnonLruDifferential, TheCapCountsPages) {
  LruModel m;
  // Four processes faulting 1000-page stretches in turn, past the cap.
  Addr cursor[4] = {0x100000, 0x100000, 0x200000000, 0x300000000};
  std::size_t pushed = 0;
  while (pushed < AnonLru::kCap + 5000) {
    const Pid pid = static_cast<Pid>((pushed / 1000) % 4);
    for (int i = 0; i < 1000; ++i, ++pushed) {
      m.push(1000 + pid, cursor[pid]);
      cursor[pid] += kSmallPageSize;
    }
    ASSERT_TRUE(m.sizes_agree()) << "after " << pushed << " pushes";
  }
  EXPECT_EQ(m.lru.size(), AnonLru::kCap);
  EXPECT_EQ(m.lru.run_count(), AnonLru::kCap / 1000);
  // Popping one page makes room for exactly one more.
  ASSERT_TRUE(m.pop());
  m.push(1000, cursor[0]);
  m.push(1000, cursor[0] + kSmallPageSize);
  ASSERT_TRUE(m.sizes_agree());
  EXPECT_EQ(m.lru.size(), AnonLru::kCap);
  while (!m.model.empty()) {
    ASSERT_TRUE(m.pop());
  }
  ASSERT_TRUE(m.sizes_agree());
}

} // namespace
} // namespace hpmmap::os
