// Capture and restore (DESIGN.md §12). snapshot::Access is the single
// friend every mm/os/sim class grants; all private-state traffic lives here.
//
// Each image type has one transfer list, `Transfer<D>::transfer(img, live)`,
// naming every field once; the direction D, Capture (live -> image) or
// Restore (image -> live), decides through its primitives on the member `d`
// which way each field moves. Steps with no image field (clearing event
// handles, dirtying caches) sit under `if constexpr (D::kRestores)`.
// Restore overwrites a freshly booted world (same config, aged_boot off,
// builds constructed but not started); what boot derives from the
// configuration (zone ranges, list lengths, the module's offlined ranges)
// is asserted equal rather than copied, the cheap cross-check that the
// fresh boot reproduced the captured topology.

#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <type_traits>
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
namespace {

/// The two sides of a transfer in direction D: capture writes the image
/// and reads the live structure, restore the other way round.
template <class D, class T>
using Img = std::conditional_t<D::kRestores, const T, T>;
template <class D, class T>
using Live = std::conditional_t<D::kRestores, T, const T>;

/// to <- from for one field. Same-typed values (vectors of numbers
/// included) move as one assignment, fixed arrays element-wise, other
/// containers (the LRU's deque) by one assign; integers and enums
/// convert, and RNG states keep their bytes.
template <class To, class From>
void put(To& to, const From& from) {
  if constexpr (std::is_array_v<To> || std::is_array_v<From>) {
    std::ranges::copy(from, std::ranges::begin(to));
  } else if constexpr (std::is_same_v<To, From>) {
    to = from;
  } else if constexpr (requires { to.assign(std::ranges::begin(from), std::ranges::end(from)); }) {
    to.assign(std::ranges::begin(from), std::ranges::end(from));
  } else if constexpr (requires { static_cast<To>(from); }) {
    to = static_cast<To>(from);
  } else {
    to = std::bit_cast<To>(from);
  }
}

/// fn(a[i], b[i]) for each i; b is at least as long as a.
template <class A, class B, class F>
void zip(A& a, B& b, F& fn) {
  auto it = std::begin(b);
  for (auto& e : a) {
    fn(e, *it++);
  }
}

/// What restore builds before inserting into a set or map: its element,
/// with a mutable key.
template <class C>
struct Entry {
  using type = typename C::value_type;
};
template <class C>
  requires requires { typename C::mapped_type; }
struct Entry<C> {
  using type = std::pair<typename C::key_type, typename C::mapped_type>;
};

} // namespace

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

  // --- directions ------------------------------------------------------------
  //
  // d(img, live) moves one field. d.same(img, live, what) captures layout a
  // fresh boot reproduces and asserts it on restore. d.each(img, live, fn)
  // moves a list entry by entry; restore rebuilds the list from
  // value-initialised entries, so entry fields with no image field (pending
  // events) start cleared. d.fixed(img, live, what, fn) moves a list whose
  // length a fresh boot fixes, asserted on restore. d.pid(img, ptr, node)
  // moves a Process*/AddressSpace* as its pid.

  struct Capture {
    static constexpr bool kRestores = false;

    template <class I, class L>
    void operator()(I& img, const L& live) const { put(img, live); }
    template <class I, class L>
    void same(I& img, const L& live, const char* /*what*/) const { put(img, live); }
    template <class I, class L, class F>
    void each(I& img, const L& live, F&& fn) const {
      img.resize(std::size(live));
      zip(img, live, fn);
    }
    template <class I, class L, class F>
    void fixed(I& img, const L& live, const char* /*what*/, F&& fn) const { each(img, live, fn); }
    template <class P>
    void pid(Pid& pid, const P* ptr, const os::Node& /*node*/) const { pid = ptr->pid(); }
  };

  struct Restore {
    static constexpr bool kRestores = true;

    template <class I, class L>
    void operator()(const I& img, L& live) const { put(live, img); }
    template <class I, class L>
    void same(const I& img, const L& live, const char* what) const {
      HPMMAP_ASSERT(img == live, what);
    }
    template <class I, class L, class F>
    void each(const I& img, L& live, F&& fn) const {
      live.clear();
      if constexpr (requires { live.resize(img.size()); }) {
        live.resize(img.size());
        zip(img, live, fn);
      } else {
        for (const auto& e : img) {
          typename Entry<L>::type entry{};
          fn(e, entry);
          live.insert(std::move(entry));
        }
      }
    }
    template <class I, class L, class F>
    void fixed(const I& img, L& live, const char* what, F&& fn) const {
      HPMMAP_ASSERT(std::size(live) == img.size(), what);
      zip(img, live, fn);
    }
    template <class P>
    void pid(Pid pid, P*& ptr, os::Node& node) const {
      const auto it =
          std::ranges::find(node.processes_, pid, [](const auto& p) { return p->pid(); });
      HPMMAP_ASSERT(it != node.processes_.end(),
                    "snapshot: image references a pid the world does not hold");
      if constexpr (std::is_same_v<P, os::Process>) {
        ptr = it->get();
      } else {
        ptr = &(*it)->as_;
      }
    }
  };

  // --- transfer lists, one per image type -----------------------------------

  /// Every transfer list, read in direction D.
  template <class D>
  struct Transfer {
    D d;

    /// (pid, addr) <-> the mm layer's (pointer, addr) queue entries.
    template <class N>
    auto pid_addr(N& node) const {
      return [this, &node](auto& pa, auto& entry) {
        d.pid(pa.pid, entry.first, node);
        d(pa.addr, entry.second);
      };
    }

    void transfer(Img<D, MemMapImage>& img, Live<D, hw::MemMap>& m) const {
      d.same(img.range, m.range_, "snapshot: mem_map range mismatch");
      if constexpr (D::kRestores) {
        d.same(img.meta.size(), m.meta_.size(), "snapshot: mem_map meta length mismatch");
      }
      d(img.meta, m.meta_);
    }

    void transfer(Img<D, BuddyImage>& img, Live<D, mm::BuddyAllocator>& b) const {
      d.same(img.range, b.range_, "snapshot: buddy layout mismatch");
      d.same(img.max_order, b.max_order_, "snapshot: buddy layout mismatch");
      d(img.free_bytes, b.free_bytes_);
      d.fixed(img.lists, b.lists_, "snapshot: buddy order count mismatch", [&](auto& li, auto& l) {
        if constexpr (D::kRestores) {
          d.same(li.bits.size(), l.bits.size(), "snapshot: buddy bitmap length mismatch");
          d.same(li.summary.size(), l.summary.size(), "snapshot: buddy summary length mismatch");
        }
        d(li.bits, l.bits);
        d(li.summary, l.summary);
        d(li.count, l.count);
        d(li.scan_hint, l.scan_hint);
      });
      transfer(img.map, b.map_);
      d.each(img.corrupt_blocks, b.corrupt_blocks_, [&](auto& ci, auto& c) {
        d(ci.addr, c.first);
        d(ci.order, c.second);
      });
      d(img.stats, b.stats_);
    }

    void transfer(Img<D, CacheImage>& img, Live<D, mm::PageCache>& c) const {
      d(img.lru, c.lru_);
      d(img.cached_bytes, c.cached_bytes_);
      d(img.free_floor, c.free_floor_);
      d(img.dirty_fraction, c.dirty_fraction_);
      d(img.grow_count, c.grow_count_);
    }

    void transfer(Img<D, MemoryImage>& img, Live<D, mm::MemorySystem>& ms) const {
      d(img.rng, ms.rng_);
      d.fixed(img.zones, ms.zones_, "snapshot: zone count mismatch", [&](auto& zi, auto& z) {
        transfer(zi.buddy, z.buddy);
        transfer(zi.cache, z.cache);
        d(zi.online_bytes, z.online_bytes);
        d(zi.compact_cursor, z.compact_cursor);
        d(zi.compact_defer, z.compact_defer);
      });
    }

    void transfer(Img<D, HugetlbImage>& img, Live<D, mm::HugetlbPool>& h) const {
      d.fixed(img.pool, h.pool_, "snapshot: hugetlb zone count mismatch", [&](auto& zi, auto& z) {
        d(zi.stack, z.stack);
        d(zi.count, z.count);
      });
      d(img.total, h.total_);
      d(img.stats, h.stats_);
    }

    void transfer(Img<D, PageTableImage>& img, Live<D, mm::PageTable>& pt) const {
      constexpr std::size_t kFanout = mm::PageTable::kFanout;
      // nodes_ flattened: node i occupies slots [kFanout*i, kFanout*(i+1)).
      if constexpr (D::kRestores) {
        HPMMAP_ASSERT(img.slots.size() % kFanout == 0,
                      "snapshot: page-table image not node-aligned");
        pt.nodes_.clear();
        pt.forget_pt();
        for (std::size_t i = 0; i < img.slots.size(); i += kFanout) {
          mm::PageTable::Node& n = pt.nodes_[pt.nodes_.append()];
          std::memcpy(n.slots.data(), img.slots.data() + i, sizeof(n.slots));
        }
      } else {
        img.slots.reserve(std::size_t{pt.nodes_.size()} * kFanout);
        for (std::uint32_t i = 0; i < pt.nodes_.size(); ++i) {
          img.slots.insert(img.slots.end(), pt.nodes_[i].slots.begin(), pt.nodes_[i].slots.end());
        }
      }
      d(img.used, pt.used_);
      d(img.free_nodes, pt.free_nodes_);
      d(img.mix, pt.mix_);
      d(img.table_pages, pt.table_pages_);
    }

    /// Re-inserting the captured (maximally merged, disjoint) VMAs in
    /// ascending order reproduces the tree byte-identically: insert() only
    /// merges adjacent *compatible* VMAs, and a consistent tree has none.
    void transfer(Img<D, std::vector<mm::Vma>>& vmas, Live<D, mm::VmaTree>& tree) const {
      if constexpr (D::kRestores) {
        tree.remove(Range{0, ~Addr{0}});
        for (const mm::Vma& v : vmas) {
          const Errno err = tree.insert(v);
          HPMMAP_ASSERT(err == Errno::kOk, "snapshot: VMA re-insert failed");
        }
      } else {
        tree.for_each([&](const mm::Vma& v) { vmas.push_back(v); });
      }
    }

    void transfer(Img<D, AddressSpaceImage>& img, Live<D, mm::AddressSpace>& as) const {
      d.same(img.pid, as.pid_, "snapshot: address-space pid mismatch");
      transfer(img.vmas, as.vmas_);
      transfer(img.pt, as.pt_);
      d(img.heap_base, as.heap_base_);
      d(img.heap_end, as.heap_end_);
      d(img.locked_until, as.locked_until_);
      d.each(img.swapped, as.swapped_out_, d);
      if constexpr (!D::kRestores) {
        // A membership-only set: bucket order depends on the set's history,
        // so a restored set would capture in a different order. Sort.
        std::ranges::sort(img.swapped);
      }
      d(img.zone_policy, as.zone_policy_);
      d(img.home_zone, as.home_zone_);
      d(img.zone_count, as.zone_count_);
    }

    void transfer(Img<D, ThpImage>& img, Live<D, mm::ThpService>& t,
                  Live<D, os::Node>& node) const {
      d.each(img.processes, t.processes_, [&](auto& pid, auto& as) { d.pid(pid, as, node); });
      d.each(img.enter_queue, t.enter_queue_, pid_addr(node));
      d.each(img.inflight, t.inflight_, pid_addr(node));
      if constexpr (!D::kRestores) {
        // inflight_ is keyed by pointer, so its iteration order is not
        // stable across processes; it is membership-only, so sort for a
        // deterministic image.
        std::ranges::sort(img.inflight, {},
                          [](const PidAddr& pa) { return std::pair(pa.pid, pa.addr); });
      }
      d(img.scan_rr, t.scan_rr_);
      d(img.scan_cursor, t.scan_cursor_);
      d(img.scan_period, t.scan_period_);
      d(img.last_scan, t.last_scan_);
      d(img.running, t.running_);
      d.each(img.pending_collapses, t.pending_collapses_, [&](auto& ci, auto& c) {
        d(ci.token, c.token);
        d.pid(ci.pid, c.as, node);
        d(ci.region, c.region);
        d(ci.mapped_small, c.mapped_small);
      });
      d.each(img.pending_merges, t.pending_merges_, [&](auto& mi, auto& m) {
        d(mi.token, m.token);
        d.pid(mi.pid, m.as, node);
        d(mi.region, m.region);
        d(mi.huge_phys, m.huge_phys);
      });
      d(img.next_token, t.next_token_);
      d(img.stats, t.stats_);
      if constexpr (D::kRestores) {
        t.pending_scan_ = sim::EventId{}; // re-armed from the event records
        t.wake_pending_ = sim::EventId{};
      }
    }

    void transfer(Img<D, ModuleImage>& img, Live<D, core::HpmmapModule>& m,
                  Live<D, os::Node>& node) const {
      d(img.rng, m.rng_);
      // A fresh boot with the same config offlines the same ranges from
      // the same forked rng stream; verify instead of trusting.
      d.same(img.offlined, m.offlined_,
             "snapshot: fresh boot offlined different ranges than the image");
      d.fixed(img.kitten_zones, m.kitten_.zones_, "snapshot: kitten zone count mismatch",
              [&](auto& heaps, auto& zh) {
                d.fixed(heaps, zh.buddies, "snapshot: kitten heap count mismatch",
                        [&](auto& bi, auto& b) { transfer(bi, b); });
              });
      d(img.kitten_stats, m.kitten_.stats_);
      d.each(img.registry_slots, m.registry_.slots_, [&](auto& si, auto& s) {
        d(si.state, s.state);
        d(si.pid, s.pid);
        d(si.context, s.context);
      });
      d(img.registry_size, m.registry_.size_);
      d(img.registry_tombstones, m.registry_.tombstones_);
      d.each(img.contexts, m.contexts_, [&](auto& ci, auto& c) {
        // A dead context holds no address space; its image pid is 0.
        if (D::kRestores ? ci.pid != 0 : c.as != nullptr) {
          d.pid(ci.pid, c.as, node);
        }
        transfer(ci.vmas, c.vmas);
        d(ci.mmap_cursor, c.mmap_cursor);
        d(ci.heap_base, c.heap_base);
        d(ci.heap_break, c.heap_break);
        d(ci.live, c.live);
      });
      d(img.stats, m.stats_);
    }

    void transfer(Img<D, SmpImage>& img, Live<D, mm::SmpDomain>& s) const {
      d.fixed(img.zone_lock_free_at, s.zone_locks_, "snapshot: smp zone count mismatch",
              [&](auto& at, auto& l) { d(at, l.free_at); });
      d.fixed(img.cpu_stall, s.cpu_stall_, "snapshot: smp core count mismatch", d);
      d.each(img.mms, s.mms_, [&](auto& mi, auto& ms) {
        d(mi.pid, ms.pid);
        d(mi.writer_free_at, ms.mmap_sem.writer_free_at);
        d(mi.readers_free_at, ms.mmap_sem.readers_free_at);
        d.each(mi.pt_shard_free_at, ms.pt_shards, [&](auto& at, auto& l) { d(at, l.free_at); });
        d(mi.pending_shootdown_pages, ms.pending_shootdown_pages);
      });
      d.fixed(img.pcp, s.pcp_, "snapshot: smp pcp list count mismatch",
              [&](auto& frames, auto& l) { d(frames, l.frames); });
      d(img.stats, s.stats_);
    }

    void transfer(Img<D, SchedulerImage>& img, Live<D, os::Scheduler>& s) const {
      d.each(img.threads, s.threads_, [&](auto& ti, auto& t) {
        d(ti.core, t.core);
        d(ti.weight, t.weight);
        d(ti.gen, t.gen);
        d(ti.live, t.live);
      });
      d(img.free_slots, s.free_slots_);
      d(img.live_count, s.live_count_);
      d(img.pinned_weight, s.pinned_weight_);
      d(img.unpinned_weight, s.unpinned_weight_);
      if constexpr (D::kRestores) {
        s.dirty_ = true; // mutable caches recompute lazily
      }
    }

    void transfer(Img<D, BandwidthImage>& img, Live<D, hw::BandwidthModel>& bw) const {
      d.each(img.entries, bw.entries_, [&](auto& ei, auto& e) {
        d(ei.consumer, e.consumer);
        d(ei.zone, e.zone);
        d(ei.demand, e.demand);
      });
      d(img.zone_demand, bw.zone_demand_);
      d(img.capacity, bw.capacity_);
      d(img.next_id, bw.next_id_);
    }

    void transfer(Img<D, NodeImage>& img, Live<D, os::Node>& n) const {
      d(img.rng, n.rng_);
      transfer(img.scheduler, n.scheduler_);
      transfer(img.bw, n.bw_);
      transfer(img.memory, *n.memory_);
      d.same(img.has_hugetlb, n.hugetlb_ != nullptr, "snapshot: hugetlb presence mismatch");
      if (img.has_hugetlb) {
        transfer(img.hugetlb, *n.hugetlb_);
      }
      // Processes before module/THP/LRU: those rebind pointers by pid.
      // Restore constructs each process from its identity first.
      d.each(img.processes, n.processes_, [&](auto& pi, auto& p) {
        if constexpr (D::kRestores) {
          p = std::make_unique<os::Process>(pi.pid, pi.name, static_cast<os::MmPolicy>(pi.policy));
        }
        d(pi.pid, p->pid_);
        d(pi.name, p->name_);
        d(pi.policy, p->policy_);
        transfer(pi.as, p->as_);
        d(pi.core, p->core_);
        d(pi.sched_id, p->sched_.id);
        d(pi.sched_gen, p->sched_.gen);
        d(pi.fault_stats, p->fault_stats_);
        d(pi.alive, p->alive_);
      });
      d.same(img.has_module, n.module_ != nullptr, "snapshot: module presence mismatch");
      if (img.has_module) {
        transfer(img.module, *n.module_, n);
      }
      d.same(img.has_thp, n.thp_ != nullptr, "snapshot: thp presence mismatch");
      if (img.has_thp) {
        transfer(img.thp, *n.thp_, n);
      }
      d.same(img.has_smp, n.smp_ != nullptr, "snapshot: smp presence mismatch");
      if (img.has_smp) {
        transfer(img.smp, *n.smp_);
      }
      d(img.next_pid, n.next_pid_);
      if constexpr (D::kRestores) {
        n.anon_lru_.pages_ = 0; // recounted from the runs
      }
      d.each(img.anon_lru, n.anon_lru_.runs_, [&](auto& ri, auto& r) {
        d(ri.pid, r.pid);
        d(ri.first, r.first);
        d(ri.pages, r.pages);
        if constexpr (D::kRestores) {
          HPMMAP_ASSERT(n.find_process(r.pid) != nullptr && r.pages > 0,
                        "snapshot: anon LRU run names an unknown pid or no pages");
          n.anon_lru_.pages_ += r.pages;
        }
      });
      d(img.swapped_out_total, n.swapped_out_total_);
      if constexpr (D::kRestores) {
        n.kswapd_event_ = sim::EventId{}; // re-armed from the event records
      }
    }

    void transfer(Img<D, BuildImage>& img, Live<D, workloads::KernelBuild>& kb) const {
      d(img.rng, kb.rng_);
      d.each(img.jobs, kb.jobs_, [&](auto& ji, auto& j) {
        d.each(ji.blocks, j.blocks, [&](auto& bi, auto& b) {
          d(bi.zone, b.zone);
          d(bi.addr, b.addr);
          d(bi.order, b.order);
        });
        d(ji.sched_id, j.sched.id);
        d(ji.sched_gen, j.sched.gen);
        d(ji.bw_id, j.bw.id);
        d(ji.home, j.home);
        d(ji.phase, j.phase);
        d(ji.live, j.live);
      });
      d(img.stats, kb.stats_);
      d(img.running, kb.running_);
    }

    void transfer(Img<D, TraceImage>& img, Live<D, trace::FlightRecorder>& rec) const {
      d(img.ring, rec.ring_);
      d(img.capacity, rec.capacity_);
      d(img.head, rec.head_);
      d(img.dropped, rec.dropped_);
      d(img.recorded, rec.recorded_);
    }

    void transfer(Img<D, RunningStatsImage>& img, Live<D, RunningStats>& s) const {
      d(img.n, s.n_);
      d(img.mean, s.mean_);
      d(img.m2, s.m2_);
      d(img.min, s.min_);
      d(img.max, s.max_);
      d(img.sum, s.sum_);
    }

    void transfer(Img<D, P2QuantileImage>& img, Live<D, P2Quantile>& p) const {
      d(img.q, p.q_);
      d(img.n, p.n_);
      d(img.heights, p.heights_);
      d(img.positions, p.positions_);
      d(img.desired, p.desired_);
      d(img.increments, p.increments_);
    }

    void transfer(Img<D, MetricsImage>& img, Live<D, trace::MetricRegistry>& reg) const {
      d.each(img.counters, reg.counters_, d);
      d.each(img.histograms, reg.histograms_, [&](auto& hi, auto& h) {
        d(hi.first, h.first);
        transfer(hi.second.stats, h.second.stats_);
        transfer(hi.second.p50, h.second.p50_);
        transfer(hi.second.p95, h.second.p95_);
        transfer(hi.second.p99, h.second.p99_);
      });
    }

    /// on_fire_ is deliberately untouched: the resumed harness installs
    /// its own audit hook before restore.
    void transfer(Img<D, InjectorImage>& img, Live<D, verify::FaultInjector>& inj) const {
      d(img.plan, inj.plan_);
      d(img.stats, inj.stats_);
      d(img.rng, inj.rng_);
      d(img.armed, inj.armed_);
    }

    void transfer(Img<D, WorldImage>& img, Live<D, sim::Engine>& e,
                  const std::vector<os::Node*>& nodes,
                  const std::vector<BuildRef>& builds) const {
      constexpr const char* kLayout = "snapshot: image does not match the target world's layout";
      d.same(img.fingerprint, fingerprint(nodes, builds), kLayout);
      if constexpr (D::kRestores) {
        clear_events(e);
      }
      d(img.engine.now, e.now_);
      d(img.engine.next_seq, e.next_seq_);
      d(img.engine.fired, e.fired_);
      d(img.engine.cancelled, e.cancelled_);
      d(img.engine.stopped, e.stopped_);
      d.fixed(img.nodes, nodes, "snapshot: node count mismatch",
              [&](auto& ni, os::Node* n) { transfer(ni, *n); });
      d.fixed(img.builds, builds, "snapshot: build count mismatch", [&](auto& bi, auto& b) {
        d.same(bi.node_index, b.node_index, kLayout);
        transfer(bi, *b.build);
      });
      if constexpr (D::kRestores) {
        rearm_events(img, e, nodes, builds);
      } else {
        capture_events(img, e, nodes, builds);
      }
      transfer(img.trace, trace::recorder());
      transfer(img.metrics, trace::metrics());
      transfer(img.injector, verify::injector());
    }
  };
};

WorldImage capture_world(sim::Engine& engine, const std::vector<os::Node*>& nodes,
                         const std::vector<BuildRef>& builds) {
  WorldImage image;
  Access::Transfer<Access::Capture>{}.transfer(image, engine, nodes, builds);
  return image;
}

void restore_world(const WorldImage& image, sim::Engine& engine,
                   const std::vector<os::Node*>& nodes,
                   const std::vector<BuildRef>& builds) {
  Access::Transfer<Access::Restore>{}.transfer(image, engine, nodes, builds);
}

bool step_one(sim::Engine& engine) { return Access::step(engine); }

PageTableImage capture_page_table(const mm::PageTable& pt) {
  PageTableImage image;
  Access::Transfer<Access::Capture>{}.transfer(image, pt);
  return image;
}

void restore_page_table(const PageTableImage& image, mm::PageTable& pt) {
  Access::Transfer<Access::Restore>{}.transfer(image, pt);
}

} // namespace hpmmap::snapshot
