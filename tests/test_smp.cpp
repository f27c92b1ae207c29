// The true SMP fault path (DESIGN.md §14): virtual-clock locks, the
// per-CPU page-frame caches, sharded PT locking and batched shootdowns,
// and the harness's (cores x variant) grid. The acceptance bar is that
// contention is *executed*, not costed — waits must emerge from how the
// core actors interleave, every modern-kernel feature must individually
// move the measured curve, and the whole grid must stay byte-identical
// for any batch-runner jobs value.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "harness/batch.hpp"
#include "harness/experiment.hpp"
#include "harness/result_fields.hpp"
#include "hw/bandwidth.hpp"
#include "hw/phys_mem.hpp"
#include "linux_mm/fault.hpp"
#include "linux_mm/smp.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace hpmmap {
namespace {

using harness::SmpRunConfig;
using harness::SmpRunResult;
using harness::SmpVariant;

// --- the virtual-clock lock primitives --------------------------------------

TEST(SimLock, WaitsEmergeFromOverlappingHolds) {
  mm::SimLock lock;
  // Uncontended: no wait, release point moves to now + hold.
  EXPECT_EQ(lock.acquire(100, 50), 0u);
  EXPECT_EQ(lock.free_at, 150u);
  // A second acquire before the release point eats exactly the overlap
  // and queues FIFO behind the holder.
  EXPECT_EQ(lock.acquire(120, 10), 30u);
  EXPECT_EQ(lock.free_at, 160u);
  // After the release point the lock is free again.
  EXPECT_EQ(lock.acquire(200, 5), 0u);
  EXPECT_EQ(lock.free_at, 205u);
}

TEST(SimRwSem, ReadersOverlapWritersSerialize) {
  mm::SimRwSem sem;
  // Two readers enter together: neither waits, both record their holds.
  EXPECT_EQ(sem.read_wait(100), 0u);
  sem.read_hold_until(180);
  EXPECT_EQ(sem.read_wait(110), 0u);
  sem.read_hold_until(150);
  EXPECT_EQ(sem.readers_free_at, 180u);
  // A writer waits out the slowest reader, then holds exclusively.
  EXPECT_EQ(sem.write_acquire(120, 40), 60u);
  EXPECT_EQ(sem.writer_free_at, 220u);
  // Readers arriving under the write hold wait it out; a second writer
  // queues behind the first.
  EXPECT_EQ(sem.read_wait(200), 20u);
  EXPECT_EQ(sem.write_acquire(200, 10), 20u);
}

// --- the 2 MiB THP fault under SMP --------------------------------------------

TEST(SmpFault, HugeFaultsQueueOnTheZoneLock) {
  hw::PhysicalMemory phys{2 * GiB, 1};
  hw::BandwidthModel bw{1, 5.6};
  const mm::CostModel costs{};
  mm::MemorySystem memory{phys, bw, Rng(3), costs};
  sim::Engine engine;
  mm::ThpService thp{memory, engine, [] { return 1.0; }};
  mm::FaultHandler handler{memory, &thp, nullptr};
  mm::SmpConfig smp_cfg;
  smp_cfg.cores = 2;
  mm::SmpDomain smp{smp_cfg, costs, 1};
  handler.attach_smp(&smp);
  mm::AddressSpace as{1};
  constexpr Addr kBase = 0x5000'0000'0000ull;
  mm::Vma vma;
  vma.range = Range{kBase, kBase + 4 * MiB};
  vma.thp_eligible = true;
  ASSERT_EQ(as.vmas().insert(vma), Errno::kOk);

  // Two cores take 2 MiB faults in two regions at the same instant: the
  // order-9 allocations bypass the pcp lists, so the second core queues
  // behind the first one's zone-lock hold.
  const mm::FaultResult first = handler.handle(as, kBase, 1000, 0);
  const mm::FaultResult second = handler.handle(as, kBase + 2 * MiB, 1000, 1);
  ASSERT_EQ(first.used, PageSize::k2M);
  ASSERT_EQ(second.used, PageSize::k2M);
  EXPECT_EQ(thp.stats().fault_huge_success, 2u);
  EXPECT_GT(smp.stats().zone_lock_wait, 0u);
  EXPECT_GE(second.lock_wait, smp.stats().zone_lock_wait);
  EXPECT_EQ(smp.stats().pcp_hits + smp.stats().pcp_misses, 0u);
}

// --- executed contention ----------------------------------------------------

SmpRunConfig quick(SmpVariant variant, std::uint32_t cores) {
  SmpRunConfig cfg;
  cfg.variant = variant;
  cfg.cores = cores;
  cfg.rounds = 3;
  cfg.slab_bytes = 1 * 1024 * 1024;
  return cfg;
}

TEST(SmpRun, ContentionGrowsWithCores) {
  const SmpRunResult one = harness::run_smp(quick(SmpVariant::kLinux1999, 1));
  const SmpRunResult many = harness::run_smp(quick(SmpVariant::kLinux1999, 16));
  // A single core never contends on mmap_sem with itself, and any
  // residual wait (its own extended lock holds) is noise-level...
  EXPECT_EQ(one.smp.mmap_sem_wait, 0u);
  // ...while 16 cores on the 1999 path fight over mmap_sem, the mm-wide
  // PT lock and the zone lock — waits grow by orders of magnitude, not
  // by the 16x a per-op cost formula would give, and per-core
  // throughput collapses.
  EXPECT_GT(many.smp.mmap_sem_wait, 0u);
  EXPECT_GT(many.smp.pt_lock_wait, 0u);
  EXPECT_GT(many.smp.zone_lock_wait, 0u);
  EXPECT_GT(many.smp.total_lock_wait(), 1000u * (one.smp.total_lock_wait() + 1));
  EXPECT_LT(many.faults_per_sec / 16.0, one.faults_per_sec);
}

TEST(SmpRun, HpmmapTakesNoSharedLocks) {
  const SmpRunResult hpm = harness::run_smp(quick(SmpVariant::kHpmmap, 16));
  const SmpRunResult stock = harness::run_smp(quick(SmpVariant::kLinux1999, 16));
  // Per-process management touches no shared Linux lock (§III-A): the
  // SMP counters stay zero and throughput clears stock at 16 cores.
  EXPECT_EQ(hpm.smp.total_lock_wait(), 0u);
  EXPECT_EQ(hpm.smp.shootdown_ipis, 0u);
  EXPECT_GT(hpm.faults_per_sec, stock.faults_per_sec);
}

TEST(SmpRun, EachFeatureChangesTheCurve) {
  const SmpRunResult full = harness::run_smp(quick(SmpVariant::kLinuxToday, 16));

  SmpRunConfig no_pcp = quick(SmpVariant::kLinuxToday, 16);
  no_pcp.pcp = false;
  SmpRunConfig no_shards = quick(SmpVariant::kLinuxToday, 16);
  no_shards.sharded_pt_locks = false;
  SmpRunConfig no_batch = quick(SmpVariant::kLinuxToday, 16);
  no_batch.batched_shootdowns = false;

  // Contention is executed, not costed: turning each feature off
  // re-exposes the lock it hides, so every ablated kernel is strictly
  // slower than the full one — a cost formula in f(cores) could not
  // respond to the switches.
  const SmpRunResult a = harness::run_smp(no_pcp);
  const SmpRunResult b = harness::run_smp(no_shards);
  const SmpRunResult c = harness::run_smp(no_batch);
  EXPECT_LT(a.faults_per_sec, full.faults_per_sec);
  EXPECT_LT(b.faults_per_sec, full.faults_per_sec);
  EXPECT_LT(c.faults_per_sec, full.faults_per_sec);
  // And each ablation hurts through its own lock, not a shared fudge.
  EXPECT_GT(a.smp.zone_lock_wait, full.smp.zone_lock_wait);
  EXPECT_GT(b.smp.pt_lock_wait, full.smp.pt_lock_wait);
  EXPECT_GT(c.smp.shootdown_ipis, full.smp.shootdown_ipis);
}

TEST(SmpRun, PcpListsBatchZoneLockTraffic) {
  const SmpRunResult on = harness::run_smp(quick(SmpVariant::kLinuxToday, 4));
  // The lists front most order-0 allocations: hits dominate the refills
  // that actually take the zone lock.
  EXPECT_GT(on.smp.pcp_hits, 0u);
  EXPECT_GT(on.smp.pcp_misses, 0u);
  EXPECT_GT(on.smp.pcp_hits, on.smp.pcp_misses);
  EXPECT_GE(on.smp.pcp_refilled_frames, on.smp.pcp_misses);

  SmpRunConfig off_cfg = quick(SmpVariant::kLinuxToday, 4);
  off_cfg.pcp = false;
  const SmpRunResult off = harness::run_smp(off_cfg);
  EXPECT_EQ(off.smp.pcp_hits, 0u);
  EXPECT_EQ(off.smp.pcp_refilled_frames, 0u);
}

TEST(SmpRun, LockWaitTracepointsFeedFlightRecorder) {
  SmpRunConfig cfg = quick(SmpVariant::kLinux1999, 8);
  cfg.trace.categories = static_cast<std::uint32_t>(trace::Category::kLock);
  const SmpRunResult r = harness::run_smp(cfg);
  ASSERT_FALSE(r.events.empty());
  bool saw_pt = false, saw_zone = false;
  for (const trace::Event& e : r.events) {
    EXPECT_EQ(e.cat, trace::Category::kLock);
    if (e.name() == "lock.pt") {
      saw_pt = true;
      // Complete-events spanning the wait, pinned to the waiting core.
      EXPECT_GT(e.dur, 0u);
      EXPECT_GE(e.core, 0);
    }
    saw_zone = saw_zone || e.name() == "lock.zone";
  }
  EXPECT_TRUE(saw_pt);
  EXPECT_TRUE(saw_zone);
}

// --- batch determinism ------------------------------------------------------

TEST(SmpBatch, GridIsByteIdenticalForAnyJobs) {
  std::vector<SmpRunConfig> grid;
  for (const SmpVariant v :
       {SmpVariant::kLinux1999, SmpVariant::kLinuxToday, SmpVariant::kHpmmap}) {
    for (const std::uint32_t cores : {1u, 4u, 16u}) {
      grid.push_back(quick(v, cores));
    }
  }
  harness::set_default_jobs(1);
  const std::vector<SmpRunResult> serial = harness::run_batch(grid);
  harness::set_default_jobs(3);
  const std::vector<SmpRunResult> parallel = harness::run_batch(grid);
  harness::set_default_jobs(0);

  ASSERT_EQ(serial.size(), grid.size());
  EXPECT_EQ(harness::first_difference(serial, parallel), std::nullopt);
}

} // namespace
} // namespace hpmmap
