// The invariant auditor: silent on healthy state (fresh nodes, every
// seed experiment configuration, post-workload machines) and precise on
// deliberately corrupted state — a leaked frame, a split buddy pair, a
// PTE outside any VMA each produce their named violation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "harness/cluster.hpp"
#include "harness/experiment.hpp"
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

TEST(Audit, ServerRunIsClean) {
  // A HugeTLBfs serving trial: the session tables that spill to 4K
  // anonymous memory fault in runs, taking their frames from the buddy
  // in bulk.
  harness::ServerRunConfig cfg;
  cfg.manager = harness::Manager::kHugetlbfs;
  cfg.seed = 77;
  cfg.arrival.mean_rps = 4000.0;
  cfg.arrival.duration_seconds = 0.1;
  cfg.service.workers = 2;
  cfg.service.session_table_bytes = 64 * MiB;
  cfg.service.object_count = 64;
  cfg.commodity = workloads::profile_c(); // a kernel build fragments the zones
  cfg.verify.audit = true;
  const harness::ServerRunResult r = harness::run_server(cfg);
  EXPECT_GT(r.faults.count[static_cast<std::size_t>(mm::FaultKind::kSmall)], 0u);
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

// --- owner-record corruption ---------------------------------------------
//
// Every owner is the only record of its blocks: the buddy's bitmaps, the
// page cache's LRU and index, the hugetlb stacks and pooled bits, the pcp
// lists. Each case below corrupts one record (a live hook, or a captured
// image restored into a fresh boot) and expects the named violation in
// the owner's own books or in the frame sweep.

/// Restore `image` into a fresh boot of `cfg`; the state arrives from
/// the image, so the boot skips aging.
std::unique_ptr<os::Node> restore_fresh(const snapshot::WorldImage& image, sim::Engine& engine,
                                        os::NodeConfig cfg) {
  cfg.aged_boot = false;
  auto node = std::make_unique<os::Node>(engine, cfg);
  snapshot::restore_world(image, engine, {node.get()});
  return node;
}

/// Clear the lowest free bit of zone 0's `order` list in `image`, keeping
/// the list's count and summary in step: the block simply vanishes from
/// the freelists while free_bytes still counts it. Returns its address.
Addr drop_free_bit(snapshot::WorldImage& image, unsigned order) {
  snapshot::BuddyImage& buddy = image.nodes.at(0).memory.zones.at(0).buddy;
  mm::BuddyAllocator::OrderList& list = buddy.lists.at(order);
  for (std::size_t w = 0; w < list.bits.size(); ++w) {
    if (list.bits[w] != 0) {
      const auto bit = static_cast<unsigned>(std::countr_zero(list.bits[w]));
      list.bits[w] &= list.bits[w] - 1;
      if (list.bits[w] == 0) {
        list.summary[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
      }
      --list.count;
      return buddy.range.begin + ((static_cast<Addr>(w) * 64 + bit) << (12 + order));
    }
  }
  ADD_FAILURE() << "no free block of order " << order;
  return 0;
}

TEST(Audit, DetectsFreeBitClearedInACapturedImage) {
  const os::NodeConfig cfg = small_config();
  snapshot::WorldImage image;
  {
    sim::Engine engine;
    os::Node node(engine, cfg);
    image = snapshot::capture_world(engine, {&node});
  }
  // A max-order block's bit lost in the image: after restore nothing
  // owns those frames, and the freelists sum a block short.
  (void)drop_free_bit(image, mm::kLinuxMaxOrder);
  sim::Engine engine;
  const std::unique_ptr<os::Node> node = restore_fresh(image, engine, cfg);
  const verify::AuditReport r = verify::MmAuditor(*node).run();
  EXPECT_TRUE(has_violation(r, "buddy.accounting")) << r.summary();
}

TEST(Audit, DetectsCacheBlockAdoptedOverAFreeBlock) {
  // The page cache adopts a block the buddy still holds free (an
  // adopt() without the alloc()): the cache indexes the block as usual,
  // and the frame sweep finds the block owned twice.
  sim::Engine engine;
  os::Node node(engine, small_config());
  Addr block = 0;
  unsigned order = 0;
  bool got = false;
  node.memory().buddy(0).for_each_free_block([&](Addr a, unsigned o) {
    if (!got) {
      block = a;
      order = o;
      got = true;
    }
  });
  ASSERT_TRUE(got);
  node.memory().cache(0).adopt(block, order, /*dirty=*/false);
  const verify::AuditReport r = verify::MmAuditor(node).run();
  EXPECT_TRUE(has_violation(r, "frame.double_owner")) << r.summary();
}

TEST(Audit, DetectsCacheBlockStateDrift) {
  mm::BuddyAllocator buddy(Range{0, 4 * MiB}, 8);
  mm::PageCache cache(buddy);
  ASSERT_GT(cache.grow(64 * KiB, 0, false), 0u);
  Addr first = 0;
  bool got = false;
  cache.for_each_block([&](Addr a, unsigned) {
    if (!got) {
      first = a;
      got = true;
    }
  });
  ASSERT_TRUE(got);
  // Drop a cached block from the index: the LRU walk finds it unindexed,
  // and the index no longer counts the LRU's blocks.
  cache.corrupt_flip_index(first, 0);
  verify::AuditReport r;
  verify::audit_page_cache(cache, "test", r);
  EXPECT_TRUE(has_violation(r, "cache.unindexed")) << r.summary();
  EXPECT_TRUE(has_violation(r, "cache.index_orphan")) << r.summary();
  // Restored, plus a stray bit over an uncached frame: only the index ->
  // LRU direction can see a block the LRU does not reach.
  cache.corrupt_flip_index(first, 0);
  cache.corrupt_flip_index(3 * MiB, 0);
  r = verify::AuditReport{};
  verify::audit_page_cache(cache, "test", r);
  EXPECT_FALSE(has_violation(r, "cache.unindexed")) << r.summary();
  EXPECT_TRUE(has_violation(r, "cache.index_orphan")) << r.summary();
}

/// Copy zone 0's first LRU entry over a later one of the same order: the
/// cache then holds that block twice and the other not at all, while
/// every count and byte total still balances.
void duplicate_lru_entry(snapshot::WorldImage& image) {
  snapshot::ZoneImage& zone = image.nodes.at(0).memory.zones.at(0);
  std::vector<mm::PageCache::Entry>& lru = zone.cache.lru;
  const auto same_order = std::find_if(lru.begin() + 1, lru.end(), [&](const auto& e) {
    return e.order == lru.front().order;
  });
  ASSERT_NE(same_order, lru.end());
  *same_order = lru.front();
}

TEST(Audit, DetectsBrokenLruChain) {
  const os::NodeConfig cfg = small_config();
  snapshot::WorldImage image;
  {
    sim::Engine engine;
    os::Node node(engine, cfg);
    ASSERT_GT(node.memory().cache(0).grow(64 * KiB, 0, false), 0u);
    image = snapshot::capture_world(engine, {&node});
  }
  duplicate_lru_entry(image);
  sim::Engine engine;
  const std::unique_ptr<os::Node> node = restore_fresh(image, engine, cfg);
  verify::AuditReport r;
  verify::audit_page_cache(node->memory().cache(0), "test", r);
  EXPECT_TRUE(has_violation(r, "cache.lru_broken")) << r.summary();
  EXPECT_FALSE(has_violation(r, "cache.accounting")) << r.summary();
}

TEST(Audit, DetectsHugetlbPoolPageStateDrift) {
  os::NodeConfig cfg = small_config();
  cfg.hugetlb_pool_per_zone = 64 * MiB;
  snapshot::WorldImage image;
  {
    sim::Engine engine;
    os::Node node(engine, cfg);
    image = snapshot::capture_world(engine, {&node});
  }
  // A pooled page's bit lost in the image: the stack walk must flag the
  // page, and the bits no longer count the stack.
  std::vector<std::uint64_t>& bits = image.nodes.at(0).hugetlb.pool.at(0).pooled;
  const auto word = std::find_if(bits.begin(), bits.end(), [](std::uint64_t w) { return w != 0; });
  ASSERT_NE(word, bits.end());
  *word &= *word - 1;
  sim::Engine engine;
  const std::unique_ptr<os::Node> node = restore_fresh(image, engine, cfg);
  const verify::AuditReport r = verify::MmAuditor(*node).run();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_violation(r, "hugetlb.pooled_bit")) << r.summary();
}

TEST(Audit, DetectsHugetlbDoubleFree) {
  sim::Engine engine;
  os::NodeConfig cfg = small_config();
  cfg.hugetlb_pool_per_zone = 64 * MiB;
  os::Node node(engine, cfg);
  const auto page = node.hugetlb()->alloc_page(0);
  ASSERT_TRUE(page.has_value());
  node.hugetlb()->free_page(page->second, page->first);
  ASSERT_TRUE(verify::MmAuditor(node).run().ok());
  // A second free of a pooled page is counted but not pushed again: the
  // stack no longer walks to the counter.
  node.hugetlb()->free_page(page->second, page->first);
  const verify::AuditReport r = verify::MmAuditor(node).run();
  EXPECT_TRUE(has_violation(r, "hugetlb.stack")) << r.summary();
}

// --- per-CPU page-frame caches ---------------------------------------------
//
// An SmpDomain parks order-0 frames on per-CPU lists; the pcp audit
// family holds each frame to its zone's range and to exactly-one-CPU
// ownership. Warm the lists the
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
  // double-alloc shape of pcp corruption. Ownership and the global frame
  // sweep must both name it.
  sim::Engine engine;
  const std::unique_ptr<os::Node> node = warm_smp_node(engine);
  node->smp()->corrupt_clone_pcp_frame(0, 1, 0);
  const verify::AuditReport r = verify::MmAuditor(*node).run();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_violation(r, "pcp.duplicate")) << r.summary();
  EXPECT_TRUE(has_violation(r, "frame.double_owner")) << r.summary();
}

// --- corruption on a restored image ----------------------------------------
//
// Structural restore equality from the other side: a snapshot round-trip
// produces a world the auditor accepts wholesale, and skewing any ONE
// structure of the restored image — a freelist bit, an LRU link, a PTE —
// is named by its exact invariant. If restore ever reconstructed these
// structures loosely, the clean-before/dirty-after pair would not hold.

/// Age and workload a node and capture it; `cfg` receives its config.
snapshot::WorldImage capture_aged_world(os::NodeConfig& cfg) {
  cfg = small_config();
  cfg.aged_boot = true;
  cfg.hugetlb_pool_per_zone = 64 * MiB;
  sim::Engine engine;
  os::Node node(engine, cfg);
  os::Process& p = node.spawn("app", os::MmPolicy::kLinuxThp, 0, 1.0,
                              mm::AddressSpace::ZonePolicy::kSingle, 0);
  const auto out = node.sys_mmap(p, 16 * MiB, kProtRW, os::Node::Segment::kHeapData);
  EXPECT_EQ(out.err, Errno::kOk);
  (void)node.touch_range(p, Range{out.addr, out.addr + 16 * MiB});
  return snapshot::capture_world(engine, {&node});
}

/// An aged world restored into a fresh non-aged boot on `engine`. The
/// caller corrupts the result.
std::unique_ptr<os::Node> restore_aged_world(sim::Engine& engine) {
  os::NodeConfig cfg;
  const snapshot::WorldImage image = capture_aged_world(cfg);
  return restore_fresh(image, engine, cfg);
}

TEST(AuditRestored, SkewedFreelistBitIsNamedExactly) {
  os::NodeConfig cfg;
  snapshot::WorldImage image = capture_aged_world(cfg);
  {
    sim::Engine engine;
    ASSERT_TRUE(verify::MmAuditor(*restore_fresh(image, engine, cfg)).run().ok());
  }
  // Clear one order-0 free block's bit in the aged image: the restored
  // freelists no longer hold the frame that free_bytes still counts.
  (void)drop_free_bit(image, 0);
  sim::Engine engine;
  const std::unique_ptr<os::Node> node = restore_fresh(image, engine, cfg);
  const verify::AuditReport r = verify::MmAuditor(*node).run();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_violation(r, "buddy.accounting")) << r.summary();
}

TEST(AuditRestored, BrokenLruLinkIsNamedExactly) {
  // The aged boot leaves the cache warm, so the restored LRU is long.
  os::NodeConfig cfg;
  snapshot::WorldImage image = capture_aged_world(cfg);
  duplicate_lru_entry(image);
  sim::Engine engine;
  const std::unique_ptr<os::Node> node = restore_fresh(image, engine, cfg);
  const verify::AuditReport r = verify::MmAuditor(*node).run();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_violation(r, "cache.lru_broken")) << r.summary();
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
