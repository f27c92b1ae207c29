// Capture/restore implementation. snapshot::Access is the single friend
// every mm/os/sim class grants; all private-state traffic lives here.
//
// Restore runs against a freshly booted world (same config, aged_boot
// off, builds constructed but not started) and overwrites it: the only
// state *not* overwritten is what boot derives deterministically from
// the configuration (PhysicalMemory section ownership, cost model, TLB
// geometry) — the module's offlined ranges are asserted equal rather
// than copied, which is the cheap cross-check that the fresh boot really
// did reproduce the captured topology.

#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "hw/bandwidth.hpp"
#include "hw/mem_map.hpp"
#include "linux_mm/address_space.hpp"
#include "linux_mm/buddy_allocator.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/memory_system.hpp"
#include "linux_mm/page_cache.hpp"
#include "linux_mm/page_table.hpp"
#include "linux_mm/smp.hpp"
#include "linux_mm/thp.hpp"
#include "core/kitten_allocator.hpp"
#include "core/module.hpp"
#include "core/pid_registry.hpp"
#include "os/node.hpp"
#include "os/process.hpp"
#include "os/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/event_callback.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "verify/fault_inject.hpp"
#include "workloads/kernel_build.hpp"

namespace hpmmap::snapshot {

struct Access {
  // --- engine primitives -------------------------------------------------

  struct EventInfo {
    Cycles when = 0;
    std::uint64_t seq = 0;
    bool daemon = false;
  };

  /// (when, seq, daemon) of a live armed event, or nullopt for a stale
  /// handle (fired or cancelled since it was stored).
  static std::optional<EventInfo> event_info(const sim::Engine& e, sim::EventId id) {
    if (!id.valid()) {
      return std::nullopt;
    }
    const std::uint32_t slot = id.slot - 1;
    if (slot >= e.slots_.size() || e.slots_[slot].gen != id.gen) {
      return std::nullopt;
    }
    for (const sim::Engine::Entry& entry : e.heap_) {
      if (entry.slot == slot && entry.gen == id.gen) {
        return EventInfo{entry.when, entry.seq, e.slots_[slot].daemon};
      }
    }
    return std::nullopt;
  }

  static void clear_events(sim::Engine& e) {
    e.heap_.clear();
    e.slots_.clear(); // EventCallback dtors release their arena blocks
    e.free_slots_.clear();
    e.live_ = 0;
    e.daemon_live_ = 0;
  }

  /// schedule_entry() with an explicit sequence number and without
  /// advancing next_seq_: re-arms a captured event so it fires at its
  /// original position in the global order.
  template <typename F>
  static sim::EventId schedule_raw(sim::Engine& e, Cycles when, std::uint64_t seq,
                                   bool daemon, F&& fn) {
    std::uint32_t slot;
    if (e.free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(e.slots_.size());
      e.slots_.emplace_back();
    } else {
      slot = e.free_slots_.back();
      e.free_slots_.pop_back();
    }
    sim::Engine::Slot& s = e.slots_[slot];
    s.fn = sim::EventCallback(std::forward<F>(fn), &e.arena_);
    s.daemon = daemon;
    e.heap_.push_back(sim::Engine::Entry{when, seq, slot, s.gen});
    e.sift_up(e.heap_.size() - 1);
    ++e.live_;
    if (daemon) {
      ++e.daemon_live_;
    }
    return sim::EventId{slot + 1, s.gen};
  }

  static bool step(sim::Engine& e) { return e.fire_next(~Cycles{0}); }

  // --- fingerprint --------------------------------------------------------

  static std::vector<std::pair<std::string, std::uint64_t>>
  fingerprint(const std::vector<os::Node*>& nodes, const std::vector<BuildRef>& builds) {
    std::vector<std::pair<std::string, std::uint64_t>> fp;
    fp.emplace_back("nodes", nodes.size());
    fp.emplace_back("builds", builds.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      os::Node& n = *nodes[i];
      const std::string p = "node" + std::to_string(i);
      fp.emplace_back(p + ".zones", n.memory_->zone_count());
      fp.emplace_back(p + ".cores", n.config_.machine.total_cores());
      fp.emplace_back(p + ".ram", n.config_.machine.ram_bytes);
      fp.emplace_back(p + ".clock_khz",
                      static_cast<std::uint64_t>(n.config_.machine.clock_hz / 1000.0));
      fp.emplace_back(p + ".module", n.module_ ? 1 : 0);
      fp.emplace_back(p + ".hugetlb", n.hugetlb_ ? 1 : 0);
      fp.emplace_back(p + ".thp", n.thp_ ? 1 : 0);
      fp.emplace_back(p + ".smp_cores", n.smp_ ? n.smp_->config().cores : 0);
      for (ZoneId z = 0; z < n.memory_->zone_count(); ++z) {
        const Range r = n.memory_->buddy(z).range();
        fp.emplace_back(p + ".zone" + std::to_string(z) + ".begin", r.begin);
        fp.emplace_back(p + ".zone" + std::to_string(z) + ".end", r.end);
      }
    }
    for (std::size_t b = 0; b < builds.size(); ++b) {
      const std::string p = "build" + std::to_string(b);
      fp.emplace_back(p + ".node", builds[b].node_index);
      fp.emplace_back(p + ".jobs", builds[b].build->config_.jobs);
    }
    return fp;
  }

  // --- capture: hw / linux_mm ---------------------------------------------

  static MemMapImage capture_mem_map(const hw::MemMap& m) {
    MemMapImage img;
    img.range = m.range_;
    img.meta = m.meta_;
    img.slot_key.reserve(m.slots_.size());
    img.slot_next.reserve(m.slots_.size());
    img.slot_prev.reserve(m.slots_.size());
    for (const hw::MemMap::Slot& s : m.slots_) {
      img.slot_key.push_back(s.key);
      img.slot_next.push_back(s.link.next);
      img.slot_prev.push_back(s.link.prev);
    }
    img.link_count = m.link_count_;
    return img;
  }

  static void restore_mem_map(const MemMapImage& img, hw::MemMap& m) {
    HPMMAP_ASSERT(m.range_ == img.range, "snapshot: mem_map range mismatch");
    m.meta_ = img.meta;
    m.slots_.assign(img.slot_key.size(), hw::MemMap::Slot{});
    for (std::size_t i = 0; i < img.slot_key.size(); ++i) {
      m.slots_[i].key = img.slot_key[i];
      m.slots_[i].link.next = img.slot_next[i];
      m.slots_[i].link.prev = img.slot_prev[i];
    }
    m.link_count_ = img.link_count;
  }

  static BuddyImage capture_buddy(const mm::BuddyAllocator& b) {
    BuddyImage img;
    img.range = b.range_;
    img.max_order = b.max_order_;
    img.free_bytes = b.free_bytes_;
    img.lists.reserve(b.lists_.size());
    for (const mm::BuddyAllocator::OrderList& l : b.lists_) {
      img.lists.push_back(OrderListImage{l.bits, l.summary, l.count, l.scan_hint});
    }
    img.map = capture_mem_map(b.map_);
    for (const auto& [addr, order] : b.corrupt_blocks_) {
      img.corrupt_blocks.push_back(CorruptBlockImage{addr, order});
    }
    img.stats = b.stats_;
    return img;
  }

  static void restore_buddy(const BuddyImage& img, mm::BuddyAllocator& b) {
    HPMMAP_ASSERT(b.range_ == img.range && b.max_order_ == img.max_order,
                  "snapshot: buddy layout mismatch");
    b.free_bytes_ = img.free_bytes;
    HPMMAP_ASSERT(b.lists_.size() == img.lists.size(), "snapshot: buddy order count mismatch");
    for (std::size_t o = 0; o < img.lists.size(); ++o) {
      b.lists_[o].bits = img.lists[o].bits;
      b.lists_[o].summary = img.lists[o].summary;
      b.lists_[o].count = img.lists[o].count;
      b.lists_[o].scan_hint = static_cast<std::size_t>(img.lists[o].scan_hint);
    }
    restore_mem_map(img.map, b.map_);
    b.corrupt_blocks_.clear();
    for (const CorruptBlockImage& c : img.corrupt_blocks) {
      b.corrupt_blocks_.emplace_back(c.addr, c.order);
    }
    b.stats_ = img.stats;
  }

  static CacheImage capture_cache(const mm::PageCache& c) {
    return CacheImage{c.head_, c.tail_, c.count_, c.cached_bytes_,
                      c.free_floor_, c.dirty_fraction_, c.grow_count_};
  }

  static void restore_cache(const CacheImage& img, mm::PageCache& c) {
    c.head_ = img.head;
    c.tail_ = img.tail;
    c.count_ = static_cast<std::size_t>(img.count);
    c.cached_bytes_ = img.cached_bytes;
    c.free_floor_ = img.free_floor;
    c.dirty_fraction_ = img.dirty_fraction;
    c.grow_count_ = img.grow_count;
  }

  static MemoryImage capture_memory(const mm::MemorySystem& ms) {
    MemoryImage img;
    img.rng = std::bit_cast<std::array<std::uint64_t, 4>>(ms.rng_);
    for (const mm::MemorySystem::ZoneState& z : ms.zones_) {
      ZoneImage zi;
      zi.buddy = capture_buddy(z.buddy);
      zi.cache = capture_cache(z.cache);
      zi.online_bytes = z.online_bytes;
      zi.compact_cursor = z.compact_cursor;
      zi.compact_defer = z.compact_defer;
      img.zones.push_back(std::move(zi));
    }
    return img;
  }

  static void restore_memory(const MemoryImage& img, mm::MemorySystem& ms) {
    ms.rng_ = std::bit_cast<Rng>(img.rng);
    HPMMAP_ASSERT(ms.zones_.size() == img.zones.size(), "snapshot: zone count mismatch");
    std::size_t zi = 0;
    for (mm::MemorySystem::ZoneState& z : ms.zones_) {
      const ZoneImage& img_z = img.zones[zi++];
      restore_buddy(img_z.buddy, z.buddy);
      restore_cache(img_z.cache, z.cache);
      z.online_bytes = img_z.online_bytes;
      z.compact_cursor = img_z.compact_cursor;
      z.compact_defer = img_z.compact_defer;
    }
  }

  static HugetlbImage capture_hugetlb(const mm::HugetlbPool& h) {
    HugetlbImage img;
    for (const mm::HugetlbPool::ZonePool& zp : h.pool_) {
      img.pool.push_back(HugetlbZonePoolImage{zp.head, zp.count});
    }
    img.total = h.total_;
    img.stats = h.stats_;
    return img;
  }

  static void restore_hugetlb(const HugetlbImage& img, mm::HugetlbPool& h) {
    HPMMAP_ASSERT(h.pool_.size() == img.pool.size(), "snapshot: hugetlb zone count mismatch");
    for (std::size_t z = 0; z < img.pool.size(); ++z) {
      h.pool_[z].head = img.pool[z].head;
      h.pool_[z].count = img.pool[z].count;
    }
    h.total_ = img.total;
    h.stats_ = img.stats;
  }

  // --- capture: address spaces ---------------------------------------------

  static PageTableImage capture_page_table(const mm::PageTable& pt) {
    PageTableImage img;
    img.slots.reserve(std::size_t{pt.nodes_.size()} * mm::PageTable::kFanout);
    for (std::uint32_t i = 0; i < pt.nodes_.size(); ++i) {
      const mm::PageTable::Node& n = pt.nodes_[i];
      img.slots.insert(img.slots.end(), n.slots.begin(), n.slots.end());
    }
    img.used = pt.used_;
    img.free_nodes = pt.free_nodes_;
    img.mix = pt.mix_;
    img.table_pages = pt.table_pages_;
    return img;
  }

  static void restore_page_table(const PageTableImage& img, mm::PageTable& pt) {
    HPMMAP_ASSERT(img.slots.size() % mm::PageTable::kFanout == 0,
                  "snapshot: page-table image not node-aligned");
    pt.nodes_.clear();
    pt.forget_pt();
    const std::size_t node_count = img.slots.size() / mm::PageTable::kFanout;
    for (std::size_t i = 0; i < node_count; ++i) {
      mm::PageTable::Node& n = pt.nodes_[pt.nodes_.append()];
      std::memcpy(n.slots.data(), img.slots.data() + i * mm::PageTable::kFanout,
                  sizeof(n.slots));
    }
    pt.used_ = img.used;
    pt.free_nodes_ = img.free_nodes;
    pt.mix_ = img.mix;
    pt.table_pages_ = img.table_pages;
  }

  static std::vector<mm::Vma> capture_vmas(const mm::VmaTree& tree) {
    std::vector<mm::Vma> out;
    tree.for_each([&](const mm::Vma& v) { out.push_back(v); });
    return out;
  }

  /// Re-inserting the captured (maximally merged, disjoint) VMAs in
  /// ascending order reproduces the tree byte-identically: insert() only
  /// merges adjacent *compatible* VMAs, and a consistent tree has none.
  static void restore_vmas(const std::vector<mm::Vma>& vmas, mm::VmaTree& tree) {
    tree.remove(Range{0, ~Addr{0}});
    for (const mm::Vma& v : vmas) {
      const Errno err = tree.insert(v);
      HPMMAP_ASSERT(err == Errno::kOk, "snapshot: VMA re-insert failed");
    }
  }

  static AddressSpaceImage capture_address_space(const mm::AddressSpace& as) {
    AddressSpaceImage img;
    img.pid = as.pid_;
    img.vmas = capture_vmas(as.vmas_);
    img.pt = capture_page_table(as.pt_);
    img.heap_base = as.heap_base_;
    img.heap_end = as.heap_end_;
    img.locked_until = as.locked_until_;
    img.swapped.assign(as.swapped_out_.begin(), as.swapped_out_.end());
    img.zone_policy = static_cast<std::uint8_t>(as.zone_policy_);
    img.home_zone = as.home_zone_;
    img.zone_count = as.zone_count_;
    return img;
  }

  static void restore_address_space(const AddressSpaceImage& img, mm::AddressSpace& as) {
    HPMMAP_ASSERT(as.pid_ == img.pid, "snapshot: address-space pid mismatch");
    restore_vmas(img.vmas, as.vmas_);
    restore_page_table(img.pt, as.pt_);
    as.heap_base_ = img.heap_base;
    as.heap_end_ = img.heap_end;
    as.locked_until_ = img.locked_until;
    as.swapped_out_.clear();
    for (Addr a : img.swapped) {
      as.swapped_out_.insert(a);
    }
    as.zone_policy_ = static_cast<mm::AddressSpace::ZonePolicy>(img.zone_policy);
    as.home_zone_ = img.home_zone;
    as.zone_count_ = img.zone_count;
  }

  // --- capture: THP / module ------------------------------------------------

  static ThpImage capture_thp(const mm::ThpService& t) {
    ThpImage img;
    for (const mm::AddressSpace* as : t.processes_) {
      img.processes.push_back(as->pid());
    }
    for (const auto& [as, addr] : t.enter_queue_) {
      img.enter_queue.push_back(PidAddr{as->pid(), addr});
    }
    for (const auto& [as, addr] : t.inflight_) {
      img.inflight.push_back(PidAddr{as->pid(), addr});
    }
    // inflight_ is keyed by pointer, so its iteration order is not
    // stable across processes; it is membership-only, so sort for a
    // deterministic image.
    std::sort(img.inflight.begin(), img.inflight.end(), [](const PidAddr& a, const PidAddr& b) {
      return a.pid != b.pid ? a.pid < b.pid : a.addr < b.addr;
    });
    img.scan_rr = t.scan_rr_;
    img.scan_cursor = t.scan_cursor_;
    img.scan_period = t.scan_period_;
    img.last_scan = t.last_scan_;
    img.running = t.running_;
    for (const mm::ThpService::PendingCollapse& pc : t.pending_collapses_) {
      img.pending_collapses.push_back(
          ThpCollapseImage{pc.token, pc.as->pid(), pc.region, pc.mapped_small});
    }
    for (const mm::ThpService::PendingMerge& pm : t.pending_merges_) {
      img.pending_merges.push_back(
          ThpMergeImage{pm.token, pm.as->pid(), pm.region, pm.huge_phys});
    }
    img.next_token = t.next_token_;
    img.stats = t.stats_;
    return img;
  }

  static void restore_thp(const ThpImage& img, mm::ThpService& t, os::Node& node) {
    t.processes_.clear();
    for (Pid pid : img.processes) {
      t.processes_.push_back(&find_process(node, pid)->as_);
    }
    t.enter_queue_.clear();
    for (const PidAddr& pa : img.enter_queue) {
      t.enter_queue_.emplace_back(&find_process(node, pa.pid)->as_, pa.addr);
    }
    t.inflight_.clear();
    for (const PidAddr& pa : img.inflight) {
      t.inflight_.emplace(&find_process(node, pa.pid)->as_, pa.addr);
    }
    t.scan_rr_ = static_cast<std::size_t>(img.scan_rr);
    t.scan_cursor_ = img.scan_cursor;
    t.scan_period_ = img.scan_period;
    t.last_scan_ = img.last_scan;
    t.running_ = img.running;
    t.pending_scan_ = sim::EventId{};
    t.wake_pending_ = sim::EventId{};
    t.pending_collapses_.clear();
    for (const ThpCollapseImage& pc : img.pending_collapses) {
      t.pending_collapses_.push_back(mm::ThpService::PendingCollapse{
          pc.token, &find_process(node, pc.pid)->as_, pc.region, pc.mapped_small,
          sim::EventId{}});
    }
    t.pending_merges_.clear();
    for (const ThpMergeImage& pm : img.pending_merges) {
      t.pending_merges_.push_back(mm::ThpService::PendingMerge{
          pm.token, &find_process(node, pm.pid)->as_, pm.region, pm.huge_phys,
          sim::EventId{}});
    }
    t.next_token_ = img.next_token;
    t.stats_ = img.stats;
  }

  static ModuleImage capture_module(const core::HpmmapModule& m) {
    ModuleImage img;
    img.rng = std::bit_cast<std::array<std::uint64_t, 4>>(m.rng_);
    img.offlined = m.offlined_;
    for (const core::KittenAllocator::ZoneHeap& zh : m.kitten_.zones_) {
      std::vector<BuddyImage> buddies;
      for (const mm::BuddyAllocator& b : zh.buddies) {
        buddies.push_back(capture_buddy(b));
      }
      img.kitten_zones.push_back(std::move(buddies));
    }
    img.kitten_stats = m.kitten_.stats_;
    for (const core::PidRegistry::Slot& s : m.registry_.slots_) {
      img.registry_slots.push_back(
          RegistrySlotImage{static_cast<std::uint8_t>(s.state), s.pid, s.context});
    }
    img.registry_size = m.registry_.size_;
    img.registry_tombstones = m.registry_.tombstones_;
    for (const core::HpmmapModule::ProcessContext& c : m.contexts_) {
      ModuleContextImage ci;
      ci.pid = (c.live && c.as != nullptr) ? c.as->pid() : 0;
      ci.vmas = capture_vmas(c.vmas);
      ci.mmap_cursor = c.mmap_cursor;
      ci.heap_base = c.heap_base;
      ci.heap_break = c.heap_break;
      ci.live = c.live;
      img.contexts.push_back(std::move(ci));
    }
    img.stats = m.stats_;
    return img;
  }

  static void restore_module(const ModuleImage& img, core::HpmmapModule& m, os::Node& node) {
    m.rng_ = std::bit_cast<Rng>(img.rng);
    // A fresh boot with the same config offlines the same ranges from
    // the same forked rng stream; verify instead of trusting.
    HPMMAP_ASSERT(m.offlined_ == img.offlined,
                  "snapshot: fresh boot offlined different ranges than the image");
    HPMMAP_ASSERT(m.kitten_.zones_.size() == img.kitten_zones.size(),
                  "snapshot: kitten zone count mismatch");
    for (std::size_t z = 0; z < img.kitten_zones.size(); ++z) {
      core::KittenAllocator::ZoneHeap& zh = m.kitten_.zones_[z];
      HPMMAP_ASSERT(zh.buddies.size() == img.kitten_zones[z].size(),
                    "snapshot: kitten heap count mismatch");
      for (std::size_t i = 0; i < zh.buddies.size(); ++i) {
        restore_buddy(img.kitten_zones[z][i], zh.buddies[i]);
      }
    }
    m.kitten_.stats_ = img.kitten_stats;
    m.registry_.slots_.assign(img.registry_slots.size(), core::PidRegistry::Slot{});
    for (std::size_t i = 0; i < img.registry_slots.size(); ++i) {
      m.registry_.slots_[i].state =
          static_cast<core::PidRegistry::State>(img.registry_slots[i].state);
      m.registry_.slots_[i].pid = img.registry_slots[i].pid;
      m.registry_.slots_[i].context = img.registry_slots[i].context;
    }
    m.registry_.size_ = static_cast<std::size_t>(img.registry_size);
    m.registry_.tombstones_ = static_cast<std::size_t>(img.registry_tombstones);
    m.contexts_.clear();
    for (const ModuleContextImage& ci : img.contexts) {
      core::HpmmapModule::ProcessContext c;
      c.as = ci.pid != 0 ? &find_process(node, ci.pid)->as_ : nullptr;
      restore_vmas(ci.vmas, c.vmas);
      c.mmap_cursor = ci.mmap_cursor;
      c.heap_base = ci.heap_base;
      c.heap_break = ci.heap_break;
      c.live = ci.live;
      m.contexts_.push_back(std::move(c));
    }
    m.stats_ = img.stats;
  }

  // --- capture: SMP domain ---------------------------------------------------

  static SmpImage capture_smp(const mm::SmpDomain& s) {
    SmpImage img;
    for (const mm::SimLock& l : s.zone_locks_) {
      img.zone_lock_free_at.push_back(l.free_at);
    }
    img.cpu_stall = s.cpu_stall_;
    for (const mm::SmpDomain::MmState& m : s.mms_) {
      SmpMmImage mi;
      mi.pid = m.pid;
      mi.writer_free_at = m.mmap_sem.writer_free_at;
      mi.readers_free_at = m.mmap_sem.readers_free_at;
      for (const mm::SimLock& l : m.pt_shards) {
        mi.pt_shard_free_at.push_back(l.free_at);
      }
      mi.pending_shootdown_pages = m.pending_shootdown_pages;
      img.mms.push_back(std::move(mi));
    }
    for (const mm::SmpDomain::PcpList& l : s.pcp_) {
      img.pcp.push_back(l.frames);
    }
    img.stats = s.stats_;
    return img;
  }

  static void restore_smp(const SmpImage& img, mm::SmpDomain& s) {
    HPMMAP_ASSERT(s.zone_locks_.size() == img.zone_lock_free_at.size(),
                  "snapshot: smp zone count mismatch");
    for (std::size_t z = 0; z < img.zone_lock_free_at.size(); ++z) {
      s.zone_locks_[z].free_at = img.zone_lock_free_at[z];
    }
    HPMMAP_ASSERT(s.cpu_stall_.size() == img.cpu_stall.size(),
                  "snapshot: smp core count mismatch");
    s.cpu_stall_ = img.cpu_stall;
    s.mms_.clear();
    for (const SmpMmImage& mi : img.mms) {
      mm::SmpDomain::MmState m;
      m.pid = mi.pid;
      m.mmap_sem.writer_free_at = mi.writer_free_at;
      m.mmap_sem.readers_free_at = mi.readers_free_at;
      for (const Cycles c : mi.pt_shard_free_at) {
        m.pt_shards.push_back(mm::SimLock{c});
      }
      m.pending_shootdown_pages = mi.pending_shootdown_pages;
      s.mms_.push_back(std::move(m));
    }
    HPMMAP_ASSERT(s.pcp_.size() == img.pcp.size(), "snapshot: smp pcp list count mismatch");
    for (std::size_t i = 0; i < img.pcp.size(); ++i) {
      s.pcp_[i].frames = img.pcp[i];
    }
    s.stats_ = img.stats;
  }

  // --- capture: os ---------------------------------------------------------

  static SchedulerImage capture_scheduler(const os::Scheduler& s) {
    SchedulerImage img;
    for (const os::Scheduler::Thread& t : s.threads_) {
      img.threads.push_back(SchedulerThreadImage{t.core, t.weight, t.gen, t.live});
    }
    img.free_slots = s.free_slots_;
    img.live_count = s.live_count_;
    img.pinned_weight = s.pinned_weight_;
    img.unpinned_weight = s.unpinned_weight_;
    return img;
  }

  static void restore_scheduler(const SchedulerImage& img, os::Scheduler& s) {
    s.threads_.clear();
    for (const SchedulerThreadImage& t : img.threads) {
      s.threads_.push_back(os::Scheduler::Thread{t.core, t.weight, t.gen, t.live});
    }
    s.free_slots_ = img.free_slots;
    s.live_count_ = static_cast<std::size_t>(img.live_count);
    s.pinned_weight_ = img.pinned_weight;
    s.unpinned_weight_ = img.unpinned_weight;
    s.dirty_ = true; // mutable caches recompute lazily
  }

  static BandwidthImage capture_bandwidth(const hw::BandwidthModel& bw) {
    BandwidthImage img;
    for (const hw::BandwidthModel::Entry& e : bw.entries_) {
      img.entries.push_back(BandwidthEntryImage{e.consumer, e.zone, e.demand});
    }
    img.zone_demand = bw.zone_demand_;
    img.capacity = bw.capacity_;
    img.next_id = bw.next_id_;
    return img;
  }

  static void restore_bandwidth(const BandwidthImage& img, hw::BandwidthModel& bw) {
    bw.entries_.clear();
    for (const BandwidthEntryImage& e : img.entries) {
      bw.entries_.push_back(hw::BandwidthModel::Entry{e.consumer, e.zone, e.demand});
    }
    bw.zone_demand_ = img.zone_demand;
    bw.capacity_ = img.capacity;
    bw.next_id_ = img.next_id;
  }

  static os::Process* find_process(os::Node& node, Pid pid) {
    for (const auto& p : node.processes_) {
      if (p->pid_ == pid) {
        return p.get();
      }
    }
    HPMMAP_ASSERT(false, "snapshot: image references a pid the world does not hold");
    return nullptr;
  }

  static NodeImage capture_node(os::Node& n) {
    NodeImage img;
    img.rng = std::bit_cast<std::array<std::uint64_t, 4>>(n.rng_);
    img.scheduler = capture_scheduler(n.scheduler_);
    img.bw = capture_bandwidth(n.bw_);
    img.memory = capture_memory(*n.memory_);
    if (n.hugetlb_) {
      img.has_hugetlb = true;
      img.hugetlb = capture_hugetlb(*n.hugetlb_);
    }
    for (const auto& p : n.processes_) {
      ProcessImage pi;
      pi.pid = p->pid_;
      pi.name = p->name_;
      pi.policy = static_cast<std::uint8_t>(p->policy_);
      pi.as = capture_address_space(p->as_);
      pi.core = p->core_;
      pi.sched_id = p->sched_.id;
      pi.sched_gen = p->sched_.gen;
      pi.fault_stats = p->fault_stats_;
      pi.alive = p->alive_;
      img.processes.push_back(std::move(pi));
    }
    if (n.module_) {
      img.has_module = true;
      img.module = capture_module(*n.module_);
    }
    if (n.thp_) {
      img.has_thp = true;
      img.thp = capture_thp(*n.thp_);
    }
    if (n.smp_) {
      img.has_smp = true;
      img.smp = capture_smp(*n.smp_);
    }
    img.next_pid = n.next_pid_;
    for (const auto& [proc, addr] : n.anon_lru_) {
      img.anon_lru.push_back(PidAddr{proc->pid_, addr});
    }
    img.swapped_out_total = n.swapped_out_total_;
    return img;
  }

  static void restore_node(const NodeImage& img, os::Node& n) {
    n.rng_ = std::bit_cast<Rng>(img.rng);
    restore_scheduler(img.scheduler, n.scheduler_);
    restore_bandwidth(img.bw, n.bw_);
    restore_memory(img.memory, *n.memory_);
    HPMMAP_ASSERT(img.has_hugetlb == (n.hugetlb_ != nullptr),
                  "snapshot: hugetlb presence mismatch");
    if (img.has_hugetlb) {
      restore_hugetlb(img.hugetlb, *n.hugetlb_);
    }
    // Processes before module/THP: both rebind AddressSpace pointers by pid.
    n.processes_.clear();
    for (const ProcessImage& pi : img.processes) {
      auto p = std::make_unique<os::Process>(pi.pid, pi.name,
                                             static_cast<os::MmPolicy>(pi.policy));
      restore_address_space(pi.as, p->as_);
      p->core_ = pi.core;
      p->sched_ = os::Scheduler::ThreadId{pi.sched_id, pi.sched_gen};
      p->fault_stats_ = pi.fault_stats;
      p->alive_ = pi.alive;
      n.processes_.push_back(std::move(p));
    }
    HPMMAP_ASSERT(img.has_module == (n.module_ != nullptr),
                  "snapshot: module presence mismatch");
    if (img.has_module) {
      restore_module(img.module, *n.module_, n);
    }
    HPMMAP_ASSERT(img.has_thp == (n.thp_ != nullptr), "snapshot: thp presence mismatch");
    if (img.has_thp) {
      restore_thp(img.thp, *n.thp_, n);
    }
    HPMMAP_ASSERT(img.has_smp == (n.smp_ != nullptr), "snapshot: smp presence mismatch");
    if (img.has_smp) {
      restore_smp(img.smp, *n.smp_);
    }
    n.next_pid_ = img.next_pid;
    n.anon_lru_.clear();
    for (const PidAddr& pa : img.anon_lru) {
      n.anon_lru_.emplace_back(find_process(n, pa.pid), pa.addr);
    }
    n.swapped_out_total_ = img.swapped_out_total;
    n.kswapd_event_ = sim::EventId{}; // re-armed from the event records
  }

  // --- capture: builds ------------------------------------------------------

  static BuildImage capture_build(const workloads::KernelBuild& kb, std::uint32_t node_index) {
    BuildImage img;
    img.node_index = node_index;
    img.rng = std::bit_cast<std::array<std::uint64_t, 4>>(kb.rng_);
    for (const workloads::KernelBuild::Job& j : kb.jobs_) {
      BuildJobImage ji;
      for (const workloads::KernelBuild::Block& blk : j.blocks) {
        ji.blocks.push_back(BuildBlockImage{blk.zone, blk.addr, blk.order});
      }
      ji.sched_id = j.sched.id;
      ji.sched_gen = j.sched.gen;
      ji.bw_id = j.bw.id;
      ji.home = j.home;
      ji.phase = j.phase;
      ji.live = j.live;
      img.jobs.push_back(std::move(ji));
    }
    img.stats = kb.stats_;
    img.running = kb.running_;
    return img;
  }

  static void restore_build(const BuildImage& img, workloads::KernelBuild& kb) {
    kb.rng_ = std::bit_cast<Rng>(img.rng);
    kb.jobs_.clear();
    kb.jobs_.resize(img.jobs.size());
    for (std::size_t i = 0; i < img.jobs.size(); ++i) {
      const BuildJobImage& ji = img.jobs[i];
      workloads::KernelBuild::Job& j = kb.jobs_[i];
      for (const BuildBlockImage& blk : ji.blocks) {
        j.blocks.push_back(workloads::KernelBuild::Block{blk.zone, blk.addr, blk.order});
      }
      j.sched = os::Scheduler::ThreadId{ji.sched_id, ji.sched_gen};
      j.bw = hw::BandwidthModel::Consumer{ji.bw_id};
      j.home = ji.home;
      j.phase = ji.phase;
      j.live = ji.live;
      j.pending = sim::EventId{}; // re-armed from the event records
    }
    kb.stats_ = img.stats;
    kb.running_ = img.running;
  }

  // --- events ---------------------------------------------------------------

  static void capture_events(WorldImage& img, const sim::Engine& e,
                             const std::vector<os::Node*>& nodes,
                             const std::vector<BuildRef>& builds) {
    auto record = [&](sim::EventId id, EventKind kind, std::uint32_t node_index,
                      std::uint32_t build_index, std::uint64_t aux) {
      const std::optional<EventInfo> info = event_info(e, id);
      if (!info) {
        return; // stale handle: fired or cancelled, nothing pending
      }
      img.events.push_back(EventRecord{info->when, info->seq, info->daemon, kind,
                                       node_index, build_index, aux});
    };
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto ni = static_cast<std::uint32_t>(i);
      os::Node& n = *nodes[i];
      record(n.kswapd_event_, EventKind::kKswapd, ni, 0, 0);
      if (n.thp_) {
        record(n.thp_->pending_scan_, EventKind::kThpScan, ni, 0, 0);
        record(n.thp_->wake_pending_, EventKind::kThpWake, ni, 0, 0);
        for (const mm::ThpService::PendingCollapse& pc : n.thp_->pending_collapses_) {
          record(pc.event, EventKind::kThpCollapse, ni, 0, pc.token);
        }
        for (const mm::ThpService::PendingMerge& pm : n.thp_->pending_merges_) {
          record(pm.event, EventKind::kThpMerge, ni, 0, pm.token);
        }
      }
    }
    for (std::size_t b = 0; b < builds.size(); ++b) {
      const workloads::KernelBuild& kb = *builds[b].build;
      for (std::size_t slot = 0; slot < kb.jobs_.size(); ++slot) {
        const workloads::KernelBuild::Job& j = kb.jobs_[slot];
        record(j.pending, j.live ? EventKind::kBuildStep : EventKind::kBuildSpawn,
               builds[b].node_index, static_cast<std::uint32_t>(b), slot);
      }
    }
    // Every live engine event must have been claimed by an owner above;
    // an unclaimed event would silently vanish from the resumed run.
    HPMMAP_ASSERT(img.events.size() == e.live_,
                  "snapshot: engine holds events no owner accounted for");
  }

  /// Whether the owner a record names exists in the target world. The
  /// indices come from the image file, which the fingerprint does not cover.
  static bool owner_exists(const EventRecord& r, const std::vector<os::Node*>& nodes,
                           const std::vector<BuildRef>& builds) {
    switch (r.kind) {
      case EventKind::kKswapd:
        return r.node_index < nodes.size();
      case EventKind::kThpScan:
      case EventKind::kThpWake:
      case EventKind::kThpCollapse:
      case EventKind::kThpMerge:
        return r.node_index < nodes.size() && nodes[r.node_index]->thp_ != nullptr;
      case EventKind::kBuildSpawn:
      case EventKind::kBuildStep:
        return r.build_index < builds.size() &&
               r.aux < builds[r.build_index].build->jobs_.size();
    }
    return false; // not a known EventKind
  }

  static void rearm_events(const WorldImage& img, sim::Engine& e,
                           const std::vector<os::Node*>& nodes,
                           const std::vector<BuildRef>& builds) {
    for (const EventRecord& r : img.events) {
      HPMMAP_ASSERT(owner_exists(r, nodes, builds),
                    "snapshot: event record names an unknown owner");
      switch (r.kind) {
        case EventKind::kKswapd: {
          os::Node* n = nodes[r.node_index];
          n->kswapd_event_ =
              schedule_raw(e, r.when, r.seq, r.daemon, [n] { n->kswapd_tick(); });
          break;
        }
        case EventKind::kThpScan: {
          mm::ThpService* t = nodes[r.node_index]->thp_.get();
          t->pending_scan_ =
              schedule_raw(e, r.when, r.seq, r.daemon, [t] { t->scan_tick(); });
          break;
        }
        case EventKind::kThpWake: {
          mm::ThpService* t = nodes[r.node_index]->thp_.get();
          t->wake_pending_ =
              schedule_raw(e, r.when, r.seq, r.daemon, [t] { t->wake_tick(); });
          break;
        }
        case EventKind::kThpCollapse: {
          mm::ThpService* t = nodes[r.node_index]->thp_.get();
          const std::uint64_t token = r.aux;
          auto it = std::find_if(
              t->pending_collapses_.begin(), t->pending_collapses_.end(),
              [token](const mm::ThpService::PendingCollapse& pc) { return pc.token == token; });
          HPMMAP_ASSERT(it != t->pending_collapses_.end(),
                        "snapshot: collapse event without a registry entry");
          it->event = schedule_raw(e, r.when, r.seq, r.daemon,
                                   [t, token] { t->collapse_tick(token); });
          break;
        }
        case EventKind::kThpMerge: {
          mm::ThpService* t = nodes[r.node_index]->thp_.get();
          const std::uint64_t token = r.aux;
          auto it = std::find_if(
              t->pending_merges_.begin(), t->pending_merges_.end(),
              [token](const mm::ThpService::PendingMerge& pm) { return pm.token == token; });
          HPMMAP_ASSERT(it != t->pending_merges_.end(),
                        "snapshot: merge event without a registry entry");
          it->event = schedule_raw(e, r.when, r.seq, r.daemon,
                                   [t, token] { t->finish_merge(token); });
          break;
        }
        case EventKind::kBuildSpawn: {
          workloads::KernelBuild* kb = builds[r.build_index].build;
          const auto slot = static_cast<std::size_t>(r.aux);
          kb->jobs_[slot].pending =
              schedule_raw(e, r.when, r.seq, r.daemon, [kb, slot] { kb->spawn_job(slot); });
          break;
        }
        case EventKind::kBuildStep: {
          workloads::KernelBuild* kb = builds[r.build_index].build;
          const auto slot = static_cast<std::size_t>(r.aux);
          kb->jobs_[slot].pending =
              schedule_raw(e, r.when, r.seq, r.daemon, [kb, slot] { kb->job_step(slot); });
          break;
        }
      }
    }
    HPMMAP_ASSERT(e.live_ == img.events.size(), "snapshot: re-arm count mismatch");
  }

  // --- per-run context -----------------------------------------------------

  static TraceImage capture_trace() {
    const trace::FlightRecorder& rec = trace::recorder();
    TraceImage img;
    img.ring = rec.ring_;
    img.capacity = rec.capacity_;
    img.head = rec.head_;
    img.dropped = rec.dropped_;
    img.recorded = rec.recorded_;
    return img;
  }

  static void restore_trace(const TraceImage& img) {
    trace::FlightRecorder& rec = trace::recorder();
    rec.ring_ = img.ring;
    rec.capacity_ = static_cast<std::size_t>(img.capacity);
    rec.head_ = static_cast<std::size_t>(img.head);
    rec.dropped_ = img.dropped;
    rec.recorded_ = img.recorded;
  }

  static RunningStatsImage capture_running_stats(const RunningStats& s) {
    return RunningStatsImage{s.n_, s.mean_, s.m2_, s.min_, s.max_, s.sum_};
  }

  static void restore_running_stats(const RunningStatsImage& img, RunningStats& s) {
    s.n_ = img.n;
    s.mean_ = img.mean;
    s.m2_ = img.m2;
    s.min_ = img.min;
    s.max_ = img.max;
    s.sum_ = img.sum;
  }

  static P2QuantileImage capture_p2(const P2Quantile& p) {
    P2QuantileImage img;
    img.q = p.q_;
    img.n = p.n_;
    for (int i = 0; i < 5; ++i) {
      img.heights[static_cast<std::size_t>(i)] = p.heights_[i];
      img.positions[static_cast<std::size_t>(i)] = p.positions_[i];
      img.desired[static_cast<std::size_t>(i)] = p.desired_[i];
      img.increments[static_cast<std::size_t>(i)] = p.increments_[i];
    }
    return img;
  }

  static void restore_p2(const P2QuantileImage& img, P2Quantile& p) {
    p.q_ = img.q;
    p.n_ = img.n;
    for (int i = 0; i < 5; ++i) {
      p.heights_[i] = img.heights[static_cast<std::size_t>(i)];
      p.positions_[i] = img.positions[static_cast<std::size_t>(i)];
      p.desired_[i] = img.desired[static_cast<std::size_t>(i)];
      p.increments_[i] = img.increments[static_cast<std::size_t>(i)];
    }
  }

  static MetricsImage capture_metrics() {
    const trace::MetricRegistry& reg = trace::metrics();
    MetricsImage img;
    for (const auto& [name, value] : reg.counters_) {
      img.counters.emplace_back(name, value);
    }
    for (const auto& [name, hist] : reg.histograms_) {
      HistogramImage hi;
      hi.stats = capture_running_stats(hist.stats_);
      hi.p50 = capture_p2(hist.p50_);
      hi.p95 = capture_p2(hist.p95_);
      hi.p99 = capture_p2(hist.p99_);
      img.histograms.emplace_back(name, hi);
    }
    return img;
  }

  static void restore_metrics(const MetricsImage& img) {
    trace::MetricRegistry& reg = trace::metrics();
    reg.counters_.clear();
    reg.histograms_.clear();
    for (const auto& [name, value] : img.counters) {
      reg.counters_[name] = value;
    }
    for (const auto& [name, hi] : img.histograms) {
      trace::Histogram& h = reg.histograms_[name];
      restore_running_stats(hi.stats, h.stats_);
      restore_p2(hi.p50, h.p50_);
      restore_p2(hi.p95, h.p95_);
      restore_p2(hi.p99, h.p99_);
    }
  }

  static InjectorImage capture_injector() {
    const verify::FaultInjector& inj = verify::injector();
    InjectorImage img;
    img.plan = inj.plan_;
    img.stats = inj.stats_;
    img.rng = std::bit_cast<std::array<std::uint64_t, 4>>(inj.rng_);
    img.armed = inj.armed_;
    return img;
  }

  /// on_fire_ is deliberately untouched: the resumed harness installs
  /// its own audit hook before restore.
  static void restore_injector(const InjectorImage& img) {
    verify::FaultInjector& inj = verify::injector();
    inj.plan_ = img.plan;
    inj.stats_ = img.stats;
    inj.rng_ = std::bit_cast<Rng>(img.rng);
    inj.armed_ = img.armed;
  }

  // --- top level ------------------------------------------------------------

  static WorldImage capture(sim::Engine& e, const std::vector<os::Node*>& nodes,
                            const std::vector<BuildRef>& builds) {
    WorldImage img;
    img.fingerprint = fingerprint(nodes, builds);
    img.engine = EngineImage{e.now_, e.next_seq_, e.fired_, e.cancelled_, e.stopped_};
    for (os::Node* n : nodes) {
      img.nodes.push_back(capture_node(*n));
    }
    for (const BuildRef& b : builds) {
      img.builds.push_back(capture_build(*b.build, b.node_index));
    }
    capture_events(img, e, nodes, builds);
    img.trace = capture_trace();
    img.metrics = capture_metrics();
    img.injector = capture_injector();
    return img;
  }

  static void restore(const WorldImage& img, sim::Engine& e,
                      const std::vector<os::Node*>& nodes,
                      const std::vector<BuildRef>& builds) {
    HPMMAP_ASSERT(img.fingerprint == fingerprint(nodes, builds),
                  "snapshot: image does not match the target world's layout");
    clear_events(e);
    HPMMAP_ASSERT(img.nodes.size() == nodes.size(), "snapshot: node count mismatch");
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      restore_node(img.nodes[i], *nodes[i]);
    }
    HPMMAP_ASSERT(img.builds.size() == builds.size(), "snapshot: build count mismatch");
    for (std::size_t b = 0; b < builds.size(); ++b) {
      restore_build(img.builds[b], *builds[b].build);
    }
    rearm_events(img, e, nodes, builds);
    e.now_ = img.engine.now;
    e.next_seq_ = img.engine.next_seq;
    e.fired_ = img.engine.fired;
    e.cancelled_ = img.engine.cancelled;
    e.stopped_ = img.engine.stopped;
    restore_trace(img.trace);
    restore_metrics(img.metrics);
    restore_injector(img.injector);
  }
};

WorldImage capture_world(sim::Engine& engine, const std::vector<os::Node*>& nodes,
                         const std::vector<BuildRef>& builds) {
  return Access::capture(engine, nodes, builds);
}

void restore_world(const WorldImage& image, sim::Engine& engine,
                   const std::vector<os::Node*>& nodes,
                   const std::vector<BuildRef>& builds) {
  Access::restore(image, engine, nodes, builds);
}

bool step_one(sim::Engine& engine) { return Access::step(engine); }

PageTableImage capture_page_table(const mm::PageTable& pt) {
  return Access::capture_page_table(pt);
}

void restore_page_table(const PageTableImage& image, mm::PageTable& pt) {
  Access::restore_page_table(image, pt);
}

} // namespace hpmmap::snapshot
