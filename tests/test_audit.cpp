// The invariant auditor: silent on healthy state (fresh nodes, every
// seed experiment configuration, post-workload machines) and precise on
// deliberately corrupted state — a leaked frame, a split buddy pair, a
// PTE outside any VMA each produce their named violation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "harness/cluster.hpp"
#include "harness/experiment.hpp"
#include "hw/mem_map.hpp"
#include "linux_mm/buddy_allocator.hpp"
#include "linux_mm/page_cache.hpp"
#include "linux_mm/smp.hpp"
#include "os/node.hpp"
#include "sim/engine.hpp"
#include "snapshot/snapshot.hpp"
#include "verify/audit.hpp"

namespace hpmmap {
namespace {

os::NodeConfig small_config() {
  os::NodeConfig cfg;
  cfg.machine = hw::dell_r415();
  cfg.machine.ram_bytes = 4 * GiB;
  cfg.seed = 5;
  cfg.aged_boot = false;
  return cfg;
}

os::Process& spawn_app(os::Node& node, os::MmPolicy policy) {
  return node.spawn("app", policy, 0, 1.0, mm::AddressSpace::ZonePolicy::kSingle, 0);
}

bool has_violation(const verify::AuditReport& r, std::string_view check) {
  return std::any_of(r.violations.begin(), r.violations.end(),
                     [&](const verify::Violation& v) { return v.check == check; });
}

harness::SingleNodeRunConfig quick(harness::Manager mgr) {
  harness::SingleNodeRunConfig cfg;
  cfg.app = "HPCCG";
  cfg.manager = mgr;
  cfg.commodity = workloads::profile_a(2);
  cfg.app_cores = 2;
  cfg.seed = 7;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;
  cfg.verify.audit = true;
  return cfg;
}

// --- healthy state -------------------------------------------------------

TEST(Audit, FreshNodeIsClean) {
  sim::Engine engine;
  os::Node node(engine, small_config());
  verify::MmAuditor auditor(node);
  const verify::AuditReport r = auditor.run();
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_GT(r.checks, 0u);
}

TEST(Audit, AgedBootIsClean) {
  sim::Engine engine;
  os::NodeConfig cfg = small_config();
  cfg.aged_boot = true;
  os::Node node(engine, cfg);
  verify::MmAuditor auditor(node);
  EXPECT_TRUE(auditor.run().ok());
}

TEST(Audit, WorkloadedNodeIsClean) {
  // Exercise every policy plus exits, then audit the whole machine.
  sim::Engine engine;
  os::NodeConfig cfg = small_config();
  core::ModuleConfig mod;
  mod.offline_bytes_per_zone = 512 * MiB;
  cfg.hpmmap = mod;
  cfg.hugetlb_pool_per_zone = 256 * MiB;
  os::Node node(engine, cfg);
  for (const os::MmPolicy policy : {os::MmPolicy::kLinuxThp, os::MmPolicy::kLinuxPlain,
                                    os::MmPolicy::kHugetlbfs, os::MmPolicy::kHpmmap}) {
    os::Process& p = spawn_app(node, policy);
    const auto out = node.sys_mmap(p, 16 * MiB, kProtRW, os::Node::Segment::kHeapData);
    ASSERT_EQ(out.err, Errno::kOk);
    (void)node.touch_range(p, Range{out.addr, out.addr + 16 * MiB});
    (void)node.sys_munmap(p, out.addr + 4 * MiB, 2 * MiB);
  }
  verify::MmAuditor auditor(node);
  const verify::AuditReport r = auditor.run();
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Audit, SeedExperimentConfigsAreClean) {
  for (const harness::Manager mgr : {harness::Manager::kThp, harness::Manager::kHugetlbfs,
                                     harness::Manager::kHpmmap}) {
    const harness::RunResult r = harness::run_single_node(quick(mgr));
    EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
    EXPECT_GT(r.audit_checks, 0u);
  }
}

TEST(Audit, ScalingRunIsClean) {
  harness::ScalingRunConfig cfg;
  cfg.app = "HPCCG";
  cfg.manager = harness::Manager::kHpmmap;
  cfg.commodity = workloads::profile_c();
  cfg.nodes = 2;
  cfg.seed = 11;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;
  cfg.verify.audit = true;
  const harness::RunResult r = harness::run_cluster({cfg});
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
  EXPECT_GT(r.audit_checks, 0u);
}

// --- corrupted state -----------------------------------------------------

TEST(Audit, DetectsLeakedFrameMappedWhileFree) {
  // A frame simultaneously mapped by a process and sitting on a buddy
  // freelist: the use-after-free shape of a real leak.
  sim::Engine engine;
  os::Node node(engine, small_config());
  os::Process& p = spawn_app(node, os::MmPolicy::kLinuxPlain);
  const auto out = node.sys_mmap(p, 1 * MiB, kProtRW, os::Node::Segment::kHeapData);
  ASSERT_EQ(out.err, Errno::kOk);
  const mm::AllocOutcome frame = node.memory().alloc_pages(0, 0, /*allow_reclaim=*/false);
  ASSERT_TRUE(frame.ok);
  ASSERT_EQ(p.address_space().page_table().map(out.addr, frame.addr, PageSize::k4K, kProtRW),
            Errno::kOk);
  node.memory().free_pages(0, frame.addr, 0); // the "double free"
  verify::MmAuditor auditor(node);
  const verify::AuditReport r = auditor.run();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_violation(r, "frame.double_owner")) << r.summary();
}

TEST(Audit, DetectsDoubleMappedFrameAcrossProcesses) {
  sim::Engine engine;
  os::Node node(engine, small_config());
  os::Process& a = spawn_app(node, os::MmPolicy::kLinuxPlain);
  os::Process& b = node.spawn("app2", os::MmPolicy::kLinuxPlain, 1, 1.0,
                              mm::AddressSpace::ZonePolicy::kSingle, 0);
  const auto va = node.sys_mmap(a, 1 * MiB, kProtRW, os::Node::Segment::kHeapData);
  const auto vb = node.sys_mmap(b, 1 * MiB, kProtRW, os::Node::Segment::kHeapData);
  const mm::AllocOutcome frame = node.memory().alloc_pages(0, 0, /*allow_reclaim=*/false);
  ASSERT_TRUE(frame.ok);
  ASSERT_EQ(a.address_space().page_table().map(va.addr, frame.addr, PageSize::k4K, kProtRW),
            Errno::kOk);
  ASSERT_EQ(b.address_space().page_table().map(vb.addr, frame.addr, PageSize::k4K, kProtRW),
            Errno::kOk);
  verify::MmAuditor auditor(node);
  const verify::AuditReport r = auditor.run();
  EXPECT_TRUE(has_violation(r, "frame.double_owner")) << r.summary();
}

TEST(Audit, DetectsSplitBuddyPair) {
  // Two free order-0 blocks that are each other's buddy must have been
  // coalesced; seeding them via the corruption hook trips the check.
  mm::BuddyAllocator buddy(Range{0, 1 * MiB}, 8);
  const auto block = buddy.alloc(1);
  ASSERT_TRUE(block.has_value());
  buddy.corrupt_insert_free_block(block->addr, 0);
  buddy.corrupt_insert_free_block(block->addr + 4 * KiB, 0);
  verify::AuditReport r;
  verify::audit_buddy(buddy, "test", r);
  EXPECT_TRUE(has_violation(r, "buddy.uncoalesced")) << r.summary();
}

TEST(Audit, DetectsDuplicateFreeBlockAsAccountingDrift) {
  // The freelists are sets, so a same-order duplicate collapses to one
  // entry — but the double-counted bytes leave the books off by a block.
  mm::BuddyAllocator buddy(Range{0, 1 * MiB}, 8);
  const auto block = buddy.alloc(2);
  ASSERT_TRUE(block.has_value());
  buddy.corrupt_insert_free_block(block->addr, 2);
  buddy.corrupt_insert_free_block(block->addr, 2);
  verify::AuditReport r;
  verify::audit_buddy(buddy, "test", r);
  EXPECT_TRUE(has_violation(r, "buddy.accounting")) << r.summary();
}

TEST(Audit, DetectsOverlappingFreeBlocks) {
  // The same frame free at two different orders: two freelist entries
  // covering overlapping physical ranges.
  mm::BuddyAllocator buddy(Range{0, 1 * MiB}, 8);
  const auto block = buddy.alloc(1);
  ASSERT_TRUE(block.has_value());
  buddy.corrupt_insert_free_block(block->addr, 0);
  buddy.corrupt_insert_free_block(block->addr, 1);
  verify::AuditReport r;
  verify::audit_buddy(buddy, "test", r);
  EXPECT_TRUE(has_violation(r, "buddy.overlap")) << r.summary();
}

TEST(Audit, DetectsOutOfRangeAndMisalignedBlocks) {
  mm::BuddyAllocator buddy(Range{0, 1 * MiB}, 8);
  buddy.corrupt_insert_free_block(2 * MiB, 0); // beyond the managed range
  const auto block = buddy.alloc(2);           // 16K hole to corrupt inside
  ASSERT_TRUE(block.has_value());
  buddy.corrupt_insert_free_block(block->addr + 4 * KiB, 1); // 8K block, 4K-aligned
  verify::AuditReport r;
  verify::audit_buddy(buddy, "test", r);
  EXPECT_TRUE(has_violation(r, "buddy.out_of_range")) << r.summary();
  EXPECT_TRUE(has_violation(r, "buddy.misaligned")) << r.summary();
}

TEST(Audit, DetectsPteOutsideAnyVma) {
  sim::Engine engine;
  os::Node node(engine, small_config());
  os::Process& p = spawn_app(node, os::MmPolicy::kLinuxPlain);
  const mm::AllocOutcome frame = node.memory().alloc_pages(0, 0, /*allow_reclaim=*/false);
  ASSERT_TRUE(frame.ok);
  const Addr stray = 0x123456000; // no VMA anywhere near
  ASSERT_EQ(p.address_space().vmas().find(stray), nullptr);
  ASSERT_EQ(p.address_space().page_table().map(stray, frame.addr, PageSize::k4K, kProtRW),
            Errno::kOk);
  verify::MmAuditor auditor(node);
  const verify::AuditReport r = auditor.run();
  EXPECT_TRUE(has_violation(r, "pte.outside_vma")) << r.summary();
}

TEST(Audit, DetectsProtMismatch) {
  sim::Engine engine;
  os::Node node(engine, small_config());
  os::Process& p = spawn_app(node, os::MmPolicy::kLinuxPlain);
  const auto out = node.sys_mmap(p, 1 * MiB, kProtRW, os::Node::Segment::kHeapData);
  ASSERT_EQ(out.err, Errno::kOk);
  const mm::AllocOutcome frame = node.memory().alloc_pages(0, 0, /*allow_reclaim=*/false);
  ASSERT_TRUE(frame.ok);
  // RW VMA, read-only leaf: a protection the VMA never granted.
  ASSERT_EQ(p.address_space().page_table().map(out.addr, frame.addr, PageSize::k4K, Prot::kRead),
            Errno::kOk);
  verify::MmAuditor auditor(node);
  const verify::AuditReport r = auditor.run();
  EXPECT_TRUE(has_violation(r, "pte.prot_mismatch")) << r.summary();
}

TEST(Audit, DetectsHugetlbPoolLeak) {
  sim::Engine engine;
  os::NodeConfig cfg = small_config();
  cfg.thp_enabled = false;
  cfg.hugetlb_pool_per_zone = 256 * MiB;
  cfg.hugetlbfs_small_spill = 0.0;
  os::Node node(engine, cfg);
  os::Process& p = spawn_app(node, os::MmPolicy::kHugetlbfs);
  const auto out = node.sys_mmap(p, 8 * MiB, kProtRW, os::Node::Segment::kHeapData);
  ASSERT_EQ(out.err, Errno::kOk);
  (void)node.touch_range(p, Range{out.addr, out.addr + 8 * MiB});
  const auto t = p.address_space().page_table().walk(out.addr);
  ASSERT_TRUE(t.has_value());
  ASSERT_EQ(t->size, PageSize::k2M);
  // Return a page to the pool while it is still mapped: the pool now
  // accounts one page twice (free + in use exceeds the reservation).
  node.hugetlb()->free_page(0, t->phys);
  verify::MmAuditor auditor(node);
  const verify::AuditReport r = auditor.run();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_violation(r, "hugetlb.conservation") || has_violation(r, "frame.double_owner"))
      << r.summary();
}

// --- mem_map cross-check corruption ---------------------------------------
//
// The intrusive rework gave every owner (buddy freelists, cache LRU,
// hugetlb stacks) a second, independent record of ownership in the
// zone's mem_map; each case below desynchronizes one direction of that
// agreement and expects the named violation.

TEST(Audit, DetectsFreeBlockMissingFromMemMap) {
  mm::BuddyAllocator buddy(Range{0, 1 * MiB}, 8);
  // The freelist says the max-order block is free; wipe its mem_map head
  // so the metadata array disagrees.
  buddy.mem_map().clear_head(0);
  verify::AuditReport r;
  verify::audit_buddy(buddy, "test", r);
  EXPECT_TRUE(has_violation(r, "buddy.memmap_state")) << r.summary();
}

TEST(Audit, DetectsForgedBuddyFreeMark) {
  mm::BuddyAllocator buddy(Range{0, 1 * MiB}, 8);
  const auto block = buddy.alloc(2);
  ASSERT_TRUE(block.has_value());
  // The block is allocated, but something re-marks it free in the
  // mem_map (a lost clear, a stray write): the reverse sweep must catch
  // the orphan mark with no matching freelist entry.
  buddy.mem_map().set_head(buddy.mem_map().index_of(block->addr), hw::FrameState::kBuddyFree, 2);
  verify::AuditReport r;
  verify::audit_buddy(buddy, "test", r);
  EXPECT_TRUE(has_violation(r, "buddy.memmap_orphan")) << r.summary();
}

TEST(Audit, DetectsCacheBlockStateDrift) {
  mm::BuddyAllocator buddy(Range{0, 4 * MiB}, 8);
  mm::PageCache cache(buddy);
  ASSERT_GT(cache.grow(64 * KiB, 0, false), 0u);
  Addr first = 0;
  bool got = false;
  cache.for_each_block([&](Addr a, unsigned, bool) {
    if (!got) {
      first = a;
      got = true;
    }
  });
  ASSERT_TRUE(got);
  // Flip a cached block's mem_map entry to a non-cache state: the LRU
  // walk sees the bad state, and the reverse head-count no longer
  // matches the cache's block count.
  buddy.mem_map().set_head(buddy.mem_map().index_of(first), hw::FrameState::kBuddyFree, 0);
  verify::AuditReport r;
  verify::audit_page_cache(buddy, cache, "test", r);
  EXPECT_TRUE(has_violation(r, "cache.memmap_state")) << r.summary();
  EXPECT_TRUE(has_violation(r, "cache.memmap_orphan")) << r.summary();
}

TEST(Audit, DetectsBrokenLruChain) {
  mm::BuddyAllocator buddy(Range{0, 4 * MiB}, 8);
  mm::PageCache cache(buddy);
  ASSERT_GT(cache.grow(64 * KiB, 0, false), 0u);
  std::vector<Addr> blocks;
  cache.for_each_block([&](Addr a, unsigned, bool) { blocks.push_back(a); });
  ASSERT_GE(blocks.size(), 3u);
  // Truncate the chain mid-way: the walk visits fewer blocks than the
  // cache accounts for, and the byte totals drift with it.
  buddy.mem_map().set_next(buddy.mem_map().index_of(blocks[1]), hw::MemMap::kNil);
  verify::AuditReport r;
  verify::audit_page_cache(buddy, cache, "test", r);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_violation(r, "cache.lru_broken") || has_violation(r, "cache.accounting"))
      << r.summary();
}

TEST(Audit, DetectsHugetlbPoolPageStateDrift) {
  sim::Engine engine;
  os::NodeConfig cfg = small_config();
  cfg.hugetlb_pool_per_zone = 64 * MiB;
  os::Node node(engine, cfg);
  Addr pooled = 0;
  bool got = false;
  node.hugetlb()->for_each_pool_page(0, [&](Addr a) {
    if (!got) {
      pooled = a;
      got = true;
    }
  });
  ASSERT_TRUE(got);
  // A pool page whose mem_map entry was wiped: the stack walk must flag
  // the state mismatch.
  node.memory().buddy(0).mem_map().clear_head(node.memory().buddy(0).mem_map().index_of(pooled));
  verify::MmAuditor auditor(node);
  const verify::AuditReport r = auditor.run();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_violation(r, "hugetlb.memmap_state")) << r.summary();
}

// --- per-CPU page-frame caches ---------------------------------------------
//
// An SmpDomain parks order-0 frames on per-CPU lists; the pcp audit
// family holds them to the same two-direction mem_map agreement as the
// buddy freelists, plus exactly-one-CPU ownership. Warm the lists the
// way a real core does: fault a slab (the refill path stocks the list)
// and munmap half of it (the free path stacks more until the drain
// watermark).

/// A 2-core SMP node with cpu 0's zone-0 pcp list warmed and non-empty.
std::unique_ptr<os::Node> warm_smp_node(sim::Engine& engine) {
  os::NodeConfig cfg = small_config();
  cfg.thp_enabled = false;
  mm::SmpConfig smp;
  smp.cores = 2;
  cfg.smp = smp;
  auto node = std::make_unique<os::Node>(engine, cfg);
  os::Process& p = spawn_app(*node, os::MmPolicy::kLinuxPlain);
  const auto out = node->sys_mmap(p, 1 * MiB, kProtRW, os::Node::Segment::kHeapData);
  EXPECT_EQ(out.err, Errno::kOk);
  (void)node->touch_range(p, Range{out.addr, out.addr + 1 * MiB}, 0);
  (void)node->sys_munmap(p, out.addr, 512 * KiB);
  EXPECT_NE(node->smp(), nullptr);
  EXPECT_GT(node->smp()->pcp_cached_bytes(0), 0u);
  return node;
}

TEST(Audit, SmpNodeWithWarmPcpListsIsClean) {
  sim::Engine engine;
  const std::unique_ptr<os::Node> node = warm_smp_node(engine);
  verify::MmAuditor auditor(*node);
  const verify::AuditReport r = auditor.run();
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Audit, DetectsPcpFrameOnTwoCpuLists) {
  // The same frame on two CPUs' lists: both cores will hand it out, the
  // double-alloc shape of pcp corruption. Ownership, conservation and
  // the global frame sweep must all name it.
  sim::Engine engine;
  const std::unique_ptr<os::Node> node = warm_smp_node(engine);
  node->smp()->corrupt_clone_pcp_frame(0, 1, 0);
  const verify::AuditReport r = verify::MmAuditor(*node).run();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_violation(r, "pcp.duplicate")) << r.summary();
  EXPECT_TRUE(has_violation(r, "pcp.conservation")) << r.summary();
  EXPECT_TRUE(has_violation(r, "frame.double_owner")) << r.summary();
}

TEST(Audit, DetectsPcpMemMapStateDrift) {
  // A cached frame whose mem_map head was wiped: the list walk must flag
  // the state mismatch (and the head count drifts with it).
  sim::Engine engine;
  const std::unique_ptr<os::Node> node = warm_smp_node(engine);
  Addr cached = 0;
  bool got = false;
  node->smp()->for_each_pcp_frame([&](std::uint32_t, ZoneId z, Addr a) {
    if (!got && z == 0) {
      cached = a;
      got = true;
    }
  });
  ASSERT_TRUE(got);
  hw::MemMap& map = node->memory().buddy(0).mem_map();
  map.clear_head(map.index_of(cached));
  const verify::AuditReport r = verify::MmAuditor(*node).run();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_violation(r, "pcp.memmap_state")) << r.summary();
  EXPECT_TRUE(has_violation(r, "pcp.conservation")) << r.summary();
}

TEST(Audit, DetectsForgedPcpMark) {
  // An allocated frame re-marked kPcpCache with no list holding it: the
  // reverse sweep must catch the orphan — such a frame is invisible to
  // every allocator forever.
  sim::Engine engine;
  const std::unique_ptr<os::Node> node = warm_smp_node(engine);
  const mm::AllocOutcome frame = node->memory().alloc_pages(0, 0, /*allow_reclaim=*/false);
  ASSERT_TRUE(frame.ok);
  hw::MemMap& map = node->memory().buddy(0).mem_map();
  map.set_head(map.index_of(frame.addr), hw::FrameState::kPcpCache, 0);
  const verify::AuditReport r = verify::MmAuditor(*node).run();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_violation(r, "pcp.memmap_orphan")) << r.summary();
  EXPECT_TRUE(has_violation(r, "pcp.conservation")) << r.summary();
}

// --- corruption on a restored image ----------------------------------------
//
// Structural restore equality from the other side: a snapshot round-trip
// produces a world the auditor accepts wholesale, and skewing any ONE
// structure of the restored image — a freelist bit, an LRU link, a PTE —
// is named by its exact invariant. If restore ever reconstructed these
// structures loosely, the clean-before/dirty-after pair would not hold.

/// Age and workload a node, capture it, and restore the image into a
/// fresh non-aged boot on `engine`. The caller corrupts the result.
std::unique_ptr<os::Node> restore_aged_world(sim::Engine& engine) {
  os::NodeConfig cfg = small_config();
  cfg.aged_boot = true;
  cfg.hugetlb_pool_per_zone = 64 * MiB;
  snapshot::WorldImage image;
  {
    sim::Engine capture_engine;
    os::Node node(capture_engine, cfg);
    os::Process& p = node.spawn("app", os::MmPolicy::kLinuxThp, 0, 1.0,
                                mm::AddressSpace::ZonePolicy::kSingle, 0);
    const auto out = node.sys_mmap(p, 16 * MiB, kProtRW, os::Node::Segment::kHeapData);
    EXPECT_EQ(out.err, Errno::kOk);
    (void)node.touch_range(p, Range{out.addr, out.addr + 16 * MiB});
    image = snapshot::capture_world(capture_engine, {&node});
  }
  cfg.aged_boot = false; // state arrives from the image
  auto node = std::make_unique<os::Node>(engine, cfg);
  snapshot::restore_world(image, engine, {node.get()});
  return node;
}

TEST(AuditRestored, SkewedFreelistBitIsNamedExactly) {
  sim::Engine engine;
  const std::unique_ptr<os::Node> node = restore_aged_world(engine);
  ASSERT_TRUE(verify::MmAuditor(*node).run().ok());
  // Wipe the mem_map head of one genuinely free block: the freelist
  // entry loses its metadata mirror.
  mm::BuddyAllocator& buddy = node->memory().buddy(0);
  Addr block = 0;
  bool got = false;
  buddy.for_each_free_block([&](Addr a, unsigned) {
    if (!got) {
      block = a;
      got = true;
    }
  });
  ASSERT_TRUE(got);
  buddy.mem_map().clear_head(buddy.mem_map().index_of(block));
  const verify::AuditReport r = verify::MmAuditor(*node).run();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_violation(r, "buddy.memmap_state")) << r.summary();
}

TEST(AuditRestored, BrokenLruLinkIsNamedExactly) {
  sim::Engine engine;
  const std::unique_ptr<os::Node> node = restore_aged_world(engine);
  ASSERT_TRUE(verify::MmAuditor(*node).run().ok());
  // Truncate the restored page-cache LRU chain mid-way (the aged boot
  // leaves the cache warm, so the chain is long).
  mm::BuddyAllocator& buddy = node->memory().buddy(0);
  std::vector<Addr> blocks;
  node->memory().cache(0).for_each_block(
      [&](Addr a, unsigned, bool) { blocks.push_back(a); });
  ASSERT_GE(blocks.size(), 3u);
  buddy.mem_map().set_next(buddy.mem_map().index_of(blocks[1]), hw::MemMap::kNil);
  const verify::AuditReport r = verify::MmAuditor(*node).run();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_violation(r, "cache.lru_broken") || has_violation(r, "cache.accounting"))
      << r.summary();
}

TEST(AuditRestored, StrayPteIsNamedExactly) {
  sim::Engine engine;
  const std::unique_ptr<os::Node> node = restore_aged_world(engine);
  ASSERT_TRUE(verify::MmAuditor(*node).run().ok());
  // Plant a leaf outside every VMA of the *restored* process image.
  os::Process* app = nullptr;
  node->for_each_process([&](const os::Process& q) {
    if (q.alive()) {
      app = const_cast<os::Process*>(&q);
    }
  });
  ASSERT_NE(app, nullptr);
  const mm::AllocOutcome frame = node->memory().alloc_pages(0, 0, /*allow_reclaim=*/false);
  ASSERT_TRUE(frame.ok);
  const Addr stray = 0x123456000;
  ASSERT_EQ(app->address_space().vmas().find(stray), nullptr);
  ASSERT_EQ(app->address_space().page_table().map(stray, frame.addr, PageSize::k4K, kProtRW),
            Errno::kOk);
  const verify::AuditReport r = verify::MmAuditor(*node).run();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_violation(r, "pte.outside_vma")) << r.summary();
}

TEST(Audit, ViolationDiagnosticsNameTheScene) {
  // The detail string must carry enough to act on: addresses and pid.
  sim::Engine engine;
  os::Node node(engine, small_config());
  os::Process& p = spawn_app(node, os::MmPolicy::kLinuxPlain);
  const mm::AllocOutcome frame = node.memory().alloc_pages(0, 0, /*allow_reclaim=*/false);
  ASSERT_TRUE(frame.ok);
  ASSERT_EQ(p.address_space().page_table().map(0x123456000, frame.addr, PageSize::k4K, kProtRW),
            Errno::kOk);
  verify::MmAuditor auditor(node);
  const verify::AuditReport r = auditor.run();
  ASSERT_FALSE(r.ok());
  const auto hit = std::find_if(r.violations.begin(), r.violations.end(),
                                [](const verify::Violation& v) {
                                  return v.check == "pte.outside_vma";
                                });
  ASSERT_NE(hit, r.violations.end());
  EXPECT_NE(hit->detail.find("0x123456000"), std::string::npos) << hit->detail;
  EXPECT_NE(hit->detail.find("pid"), std::string::npos) << hit->detail;
  EXPECT_NE(r.summary().find("pte.outside_vma"), std::string::npos);
}

} // namespace
} // namespace hpmmap
