// Unit tests: the HPMMAP module itself — offlining lifecycle, the Kitten
// allocator, interposed syscalls, and the paper's §III invariants.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/kitten_allocator.hpp"
#include "core/module.hpp"
#include "hw/bandwidth.hpp"
#include "hw/phys_mem.hpp"
#include "linux_mm/address_space.hpp"
#include "linux_mm/cost_model.hpp"

namespace hpmmap::core {
namespace {

struct Fixture {
  hw::PhysicalMemory phys{4 * GiB, 2}; // 2 GiB per zone
  hw::BandwidthModel bw{2, 5.6};
  mm::CostModel costs{};
  ModuleConfig config{};

  Fixture() { config.offline_bytes_per_zone = 1 * GiB; }

  std::unique_ptr<HpmmapModule> load() {
    return std::make_unique<HpmmapModule>(phys, bw, costs, Rng(1), config);
  }
};

// --- Kitten allocator -------------------------------------------------------

TEST(Kitten, AllocatesLargePagesWithoutCompaction) {
  std::vector<std::vector<Range>> ranges{{Range{0, 512 * MiB}}};
  KittenAllocator k(std::move(ranges));
  EXPECT_EQ(k.total_bytes(0), 512 * MiB);
  const auto a = k.alloc(0, kLargePageSize);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(is_aligned(*a, kLargePageSize));
  EXPECT_EQ(k.free_bytes(0), 512 * MiB - 2 * MiB);
}

TEST(Kitten, Allocates1GPages) {
  std::vector<std::vector<Range>> ranges{{Range{0, 2 * GiB}}};
  KittenAllocator k(std::move(ranges));
  const auto a = k.alloc(0, kHugePageSize);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(is_aligned(*a, kHugePageSize));
}

TEST(Kitten, FailsFastWhenExhausted) {
  std::vector<std::vector<Range>> ranges{{Range{0, 4 * MiB}}};
  KittenAllocator k(std::move(ranges));
  ASSERT_TRUE(k.alloc(0, 2 * MiB).has_value());
  ASSERT_TRUE(k.alloc(0, 2 * MiB).has_value());
  EXPECT_FALSE(k.alloc(0, 2 * MiB).has_value());
  EXPECT_EQ(k.stats().failed, 1u);
}

TEST(Kitten, FreeRestoresAndCoalesces) {
  std::vector<std::vector<Range>> ranges{{Range{0, 16 * MiB}}};
  KittenAllocator k(std::move(ranges));
  std::vector<Addr> blocks;
  while (auto a = k.alloc(0, 2 * MiB)) {
    blocks.push_back(*a);
  }
  EXPECT_FALSE(k.all_free());
  for (Addr b : blocks) {
    k.free(0, b, 2 * MiB);
  }
  EXPECT_TRUE(k.all_free());
  // And a full-size block is again allocatable (coalesced).
  EXPECT_TRUE(k.alloc(0, 16 * MiB).has_value());
}

TEST(Kitten, MultipleRangesPerZone) {
  std::vector<std::vector<Range>> ranges{
      {Range{0, kMemorySectionSize}, Range{1 * GiB, 1 * GiB + kMemorySectionSize}}};
  KittenAllocator k(std::move(ranges));
  EXPECT_EQ(k.total_bytes(0), 2 * kMemorySectionSize);
  // Exhaust the first range; allocation spills into the second.
  std::size_t got = 0;
  while (k.alloc(0, kMemorySectionSize / 2).has_value()) {
    ++got;
  }
  EXPECT_EQ(got, 4u);
}

TEST(KittenDeath, ForeignFreeAborts) {
  std::vector<std::vector<Range>> ranges{{Range{0, 16 * MiB}}};
  KittenAllocator k(std::move(ranges));
  EXPECT_DEATH(k.free(0, 64 * MiB, 2 * MiB), "no Kitten range owns");
}

TEST(Kitten, HeapsKeepNothingBelowTwoMiB) {
  std::vector<std::vector<Range>> ranges{
      {Range{0, 512 * MiB}, Range{1 * GiB, 1 * GiB + kMemorySectionSize}},
      {Range{2 * GiB, 3 * GiB}}};
  KittenAllocator k(std::move(ranges));
  std::size_t buddies = 0;
  k.for_each_buddy([&](ZoneId z, const mm::BuddyAllocator& buddy) {
    ++buddies;
    EXPECT_EQ(buddy.min_order(), KittenAllocator::kMinOrder) << "zone " << z;
    for (unsigned o = 0; o < KittenAllocator::kMinOrder; ++o) {
      EXPECT_EQ(buddy.free_blocks(o), 0u) << "zone " << z << " order " << o;
    }
  });
  EXPECT_EQ(buddies, 3u);
  EXPECT_TRUE(k.check_consistency());
}

TEST(Kitten, RefusesRequestsBelowTwoMiB) {
  std::vector<std::vector<Range>> ranges{{Range{0, 16 * MiB}}};
  KittenAllocator k(std::move(ranges));
  EXPECT_FALSE(k.alloc(0, kSmallPageSize).has_value());
  EXPECT_FALSE(k.alloc(0, 1 * MiB).has_value());
  EXPECT_EQ(k.stats().failed, 2u);
  EXPECT_EQ(k.stats().allocs, 0u);
  EXPECT_TRUE(k.all_free());
  EXPECT_TRUE(k.alloc(0, 2 * MiB).has_value());
}

TEST(Kitten, FourKiBFramesInsideAFreeBlockAreFree) {
  std::vector<std::vector<Range>> ranges{{Range{0, 16 * MiB}}};
  KittenAllocator k(std::move(ranges));
  EXPECT_TRUE(k.frame_is_free(0, 4 * KiB));
  const auto a = k.alloc(0, 2 * MiB);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(k.frame_is_free(0, *a + 4 * KiB));
  EXPECT_TRUE(k.frame_is_free(0, *a + 2 * MiB + 4 * KiB));
  EXPECT_TRUE(k.frame_is_free(0, 16 * MiB - 4 * KiB));
}

TEST(KittenDeath, FreeBelowTwoMiBAborts) {
  std::vector<std::vector<Range>> ranges{{Range{0, 16 * MiB}}};
  KittenAllocator k(std::move(ranges));
  const auto a = k.alloc(0, 2 * MiB);
  ASSERT_TRUE(a.has_value());
  EXPECT_DEATH(k.free(0, *a, kSmallPageSize), "order below min_order");
}

// --- module lifecycle ----------------------------------------------------------

TEST(Module, LoadOfflinesConfiguredMemory) {
  Fixture f;
  auto module = f.load();
  EXPECT_EQ(f.phys.offlined_bytes(0), 1 * GiB);
  EXPECT_EQ(f.phys.offlined_bytes(1), 1 * GiB);
  EXPECT_EQ(module->allocator().total_bytes(0), 1 * GiB);
}

TEST(Module, UnloadReturnsMemoryToLinux) {
  Fixture f;
  {
    auto module = f.load();
    EXPECT_EQ(f.phys.online_bytes(0), 1 * GiB);
  }
  EXPECT_EQ(f.phys.online_bytes(0), 2 * GiB);
  EXPECT_EQ(f.phys.offlined_bytes(0), 0u);
}

TEST(Module, RegistrationLifecycle) {
  Fixture f;
  mm::AddressSpace as(100);
  auto module = f.load();
  EXPECT_FALSE(module->handles(100));
  EXPECT_EQ(module->register_process(100, as), Errno::kOk);
  EXPECT_TRUE(module->handles(100));
  EXPECT_EQ(module->register_process(100, as), Errno::kExist);
  EXPECT_EQ(module->unregister_process(100), Errno::kOk);
  EXPECT_FALSE(module->handles(100));
  EXPECT_EQ(module->unregister_process(100), Errno::kNoEnt);
}

TEST(Module, MmapBacksImmediatelyWithLargePages) {
  Fixture f;
  mm::AddressSpace as(100);
  auto module = f.load();
  as.set_zone_policy(mm::AddressSpace::ZonePolicy::kSingle, 0, 2);
  ASSERT_EQ(module->register_process(100, as), Errno::kOk);

  const SyscallResult r = module->mmap(100, 10 * MiB, kProtRW);
  ASSERT_EQ(r.err, Errno::kOk);
  EXPECT_TRUE(HpmmapModule::in_window(r.addr));
  // On-request backing: every byte of the (2M-rounded) region is mapped
  // by a 2M leaf before the call returns — the zero-fault invariant.
  for (Addr va = r.addr; va < r.addr + 10 * MiB; va += kSmallPageSize) {
    const auto t = as.page_table().walk(va);
    ASSERT_TRUE(t.has_value()) << va - r.addr;
    EXPECT_EQ(t->size, PageSize::k2M);
  }
  EXPECT_EQ(module->stats().map_2m, 5u);
  EXPECT_EQ(module->stats().bytes_mapped, 10 * MiB);
}

TEST(Module, MmapRoundsToLargePage) {
  Fixture f;
  mm::AddressSpace as(100);
  auto module = f.load();
  ASSERT_EQ(module->register_process(100, as), Errno::kOk);
  const SyscallResult r = module->mmap(100, 5 * KiB, kProtRW);
  ASSERT_EQ(r.err, Errno::kOk);
  EXPECT_EQ(module->stats().bytes_mapped, kLargePageSize);
}

TEST(Module, MmapChargesZeroingUpFront) {
  Fixture f;
  mm::AddressSpace as(100);
  auto module = f.load();
  ASSERT_EQ(module->register_process(100, as), Errno::kOk);
  const SyscallResult r = module->mmap(100, 64 * MiB, kProtRW);
  // 64 MiB at ~6 B/cycle -> ~11M cycles charged to the syscall, not to
  // faults ("on-request" moves the cost off the fault path).
  EXPECT_GT(r.cost, 5'000'000u);
}

TEST(Module, MunmapReleasesBacking) {
  Fixture f;
  mm::AddressSpace as(100);
  auto module = f.load();
  ASSERT_EQ(module->register_process(100, as), Errno::kOk);
  const std::uint64_t free_before = module->allocator().free_bytes(0) +
                                    module->allocator().free_bytes(1);
  const SyscallResult r = module->mmap(100, 10 * MiB, kProtRW);
  ASSERT_EQ(r.err, Errno::kOk);
  const SyscallResult u = module->munmap(100, r.addr, 10 * MiB);
  ASSERT_EQ(u.err, Errno::kOk);
  EXPECT_EQ(module->allocator().free_bytes(0) + module->allocator().free_bytes(1),
            free_before);
  EXPECT_FALSE(as.page_table().walk(r.addr).has_value());
  EXPECT_EQ(module->stats().bytes_mapped, 0u);
}

TEST(Module, BrkGrowsAndShrinksHeap) {
  Fixture f;
  mm::AddressSpace as(100);
  auto module = f.load();
  ASSERT_EQ(module->register_process(100, as), Errno::kOk);
  const SyscallResult base = module->brk(100, 0);
  ASSERT_EQ(base.err, Errno::kOk);
  const SyscallResult grown = module->brk(100, base.addr + 5 * MiB);
  ASSERT_EQ(grown.err, Errno::kOk);
  // 5 MiB rounds to 6 MiB of 2M pages, all mapped.
  EXPECT_TRUE(as.page_table().walk(base.addr + 5 * MiB - 1).has_value());
  const SyscallResult shrunk = module->brk(100, base.addr + 1 * MiB);
  ASSERT_EQ(shrunk.err, Errno::kOk);
  EXPECT_TRUE(as.page_table().walk(base.addr).has_value());
  EXPECT_FALSE(as.page_table().walk(base.addr + 4 * MiB).has_value());
  const SyscallResult query = module->brk(100, 0);
  EXPECT_EQ(query.addr, base.addr + 1 * MiB);
}

TEST(Module, BrkBelowBaseIsEinval) {
  Fixture f;
  mm::AddressSpace as(100);
  auto module = f.load();
  ASSERT_EQ(module->register_process(100, as), Errno::kOk);
  const SyscallResult base = module->brk(100, 0);
  EXPECT_EQ(module->brk(100, base.addr - 1).err, Errno::kInval);
}

TEST(Module, MprotectUpdatesLeaves) {
  Fixture f;
  mm::AddressSpace as(100);
  auto module = f.load();
  ASSERT_EQ(module->register_process(100, as), Errno::kOk);
  const SyscallResult r = module->mmap(100, 4 * MiB, kProtRW);
  ASSERT_EQ(r.err, Errno::kOk);
  const SyscallResult p = module->mprotect(100, r.addr, 4 * MiB, Prot::kRead);
  ASSERT_EQ(p.err, Errno::kOk);
  EXPECT_EQ(as.page_table().walk(r.addr)->prot, Prot::kRead);
}

TEST(Module, SyscallsFromUnregisteredPidAreRejected) {
  Fixture f;
  auto module = f.load();
  EXPECT_EQ(module->mmap(999, 2 * MiB, kProtRW).err, Errno::kNoEnt);
  EXPECT_EQ(module->brk(999, 0).err, Errno::kNoEnt);
  EXPECT_EQ(module->munmap(999, mm::AddressLayout::kHpmmapBase, 2 * MiB).err, Errno::kNoEnt);
}

TEST(Module, ZeroFaultInvariant) {
  // The paper's core claim (§III-A): valid accesses to HPMMAP memory
  // generate no page faults. A fault on a mapped page is spurious and
  // must not reach any allocation path.
  Fixture f;
  mm::AddressSpace as(100);
  auto module = f.load();
  ASSERT_EQ(module->register_process(100, as), Errno::kOk);
  const SyscallResult r = module->mmap(100, 8 * MiB, kProtRW);
  ASSERT_EQ(r.err, Errno::kOk);
  const mm::FaultResult fr = module->fault(100, r.addr + 3 * MiB, 0);
  EXPECT_EQ(fr.err, Errno::kOk);
  EXPECT_EQ(module->stats().spurious_faults, 1u);
  EXPECT_EQ(module->stats().demand_faults, 0u);
}

TEST(Module, FaultOutsideRegionsIsEfault) {
  Fixture f;
  mm::AddressSpace as(100);
  auto module = f.load();
  ASSERT_EQ(module->register_process(100, as), Errno::kOk);
  const mm::FaultResult fr = module->fault(100, mm::AddressLayout::kHpmmapBase + 512 * GiB, 0);
  EXPECT_EQ(fr.err, Errno::kFault);
}

TEST(Module, DemandPagingAblationFaultsPerChunk) {
  Fixture f;
  f.config.on_request = false; // the A2 ablation
  mm::AddressSpace as(100);
  auto module = f.load();
  ASSERT_EQ(module->register_process(100, as), Errno::kOk);
  const SyscallResult r = module->mmap(100, 6 * MiB, kProtRW);
  ASSERT_EQ(r.err, Errno::kOk);
  EXPECT_FALSE(as.page_table().walk(r.addr).has_value()); // not yet backed
  const mm::FaultResult fr = module->fault(100, r.addr + 2 * MiB + 5, 0);
  EXPECT_EQ(fr.err, Errno::kOk);
  EXPECT_EQ(fr.used, PageSize::k2M);
  EXPECT_EQ(module->stats().demand_faults, 1u);
  EXPECT_TRUE(as.page_table().walk(r.addr + 2 * MiB).has_value());
  EXPECT_FALSE(as.page_table().walk(r.addr + 4 * MiB).has_value());
}

TEST(Module, OneGigPagesWhenEnabled) {
  Fixture f;
  f.config.use_1g_pages = true;
  mm::AddressSpace as(100);
  auto module = f.load();
  as.set_zone_policy(mm::AddressSpace::ZonePolicy::kSingle, 0, 2);
  ASSERT_EQ(module->register_process(100, as), Errno::kOk);
  // The mmap cursor is 1G-aligned at module scale; a 1 GiB request maps
  // with a single huge leaf when alignment and pool allow.
  const SyscallResult r = module->mmap(100, 1 * GiB, kProtRW);
  ASSERT_EQ(r.err, Errno::kOk);
  EXPECT_GE(module->stats().map_1g, 1u);
}

TEST(Module, ExhaustionRollsBackCleanly) {
  Fixture f;
  f.config.offline_bytes_per_zone = kMemorySectionSize; // tiny: 128 MiB/zone
  mm::AddressSpace as(100);
  auto module = f.load();
  ASSERT_EQ(module->register_process(100, as), Errno::kOk);
  const std::uint64_t free_before = module->allocator().free_bytes(0) +
                                    module->allocator().free_bytes(1);
  const SyscallResult r = module->mmap(100, 1 * GiB, kProtRW); // cannot fit
  EXPECT_EQ(r.err, Errno::kNoMem);
  EXPECT_EQ(module->allocator().free_bytes(0) + module->allocator().free_bytes(1),
            free_before);
  EXPECT_EQ(module->stats().bytes_mapped, 0u);
}

TEST(Module, UnregisterFreesEverything) {
  Fixture f;
  mm::AddressSpace as(100);
  auto module = f.load();
  ASSERT_EQ(module->register_process(100, as), Errno::kOk);
  (void)module->mmap(100, 32 * MiB, kProtRW);
  const SyscallResult base = module->brk(100, 0);
  (void)module->brk(100, base.addr + 16 * MiB);
  ASSERT_EQ(module->unregister_process(100), Errno::kOk);
  EXPECT_TRUE(module->allocator().all_free());
}

TEST(Module, NumaInterleaveSplitsAcrossZones) {
  Fixture f;
  mm::AddressSpace as(100);
  auto module = f.load();
  as.set_zone_policy(mm::AddressSpace::ZonePolicy::kInterleave, 0, 2);
  ASSERT_EQ(module->register_process(100, as), Errno::kOk);
  const SyscallResult r = module->mmap(100, 64 * MiB, kProtRW);
  ASSERT_EQ(r.err, Errno::kOk);
  const std::uint64_t used0 = module->allocator().total_bytes(0) -
                              module->allocator().free_bytes(0);
  const std::uint64_t used1 = module->allocator().total_bytes(1) -
                              module->allocator().free_bytes(1);
  // §IV: "exactly half its memory was allocated from each NUMA zone".
  EXPECT_EQ(used0, 32 * MiB);
  EXPECT_EQ(used1, 32 * MiB);
}

TEST(Module, InWindowClassifier) {
  EXPECT_TRUE(HpmmapModule::in_window(mm::AddressLayout::kHpmmapBase));
  EXPECT_TRUE(HpmmapModule::in_window(mm::AddressLayout::kHpmmapTop - 1));
  EXPECT_FALSE(HpmmapModule::in_window(mm::AddressLayout::kHpmmapTop));
  EXPECT_FALSE(HpmmapModule::in_window(0x400000));
}

TEST(Module, ForceUnloadReleasesLiveProcesses) {
  // Unloading with a live registration force-releases it: the offlined
  // memory is whole again and goes back online.
  Fixture f;
  mm::AddressSpace as(100);
  {
    auto module = f.load();
    ASSERT_EQ(module->register_process(100, as), Errno::kOk);
    ASSERT_EQ(module->mmap(100, 16 * MiB, kProtRW).err, Errno::kOk);
  }
  EXPECT_EQ(f.phys.offlined_bytes(0), 0u);
  EXPECT_EQ(f.phys.online_bytes(0), 2 * GiB);
}

} // namespace
} // namespace hpmmap::core
