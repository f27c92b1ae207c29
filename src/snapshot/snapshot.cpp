// Capture and restore (DESIGN.md §12). snapshot::Access is the single
// friend every mm/os/sim class grants; all private-state traffic lives here.
//
// Each image type has one transfer list, `Transfer<D>::transfer(img, live)`,
// naming every field once; an owner whose members copy one-to-one moves
// its whole `State` (image.hpp) as one field. The direction D, Capture
// (live -> image) or Restore (image -> live), decides through its
// primitives on the member `d` which way each field moves; an owner's
// pending engine event moves with it through d.event. Steps with no image
// field (clearing the engine, dirtying caches, re-indexing the page
// cache from its LRU) sit under
// `if constexpr (D::kRestores)`. Restore overwrites a freshly booted world
// (same config, aged_boot off, builds constructed but not started); what
// boot derives from the configuration (node and build counts, clock, zone
// ranges, list lengths, the module's offlined ranges) is asserted equal at
// its owner rather than copied, the cheap cross-check that the fresh boot
// reproduced the captured topology.

#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "hw/bandwidth.hpp"
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

/// to <- from for one field. Same-typed values (vectors and owners'
/// `State` aggregates included) move as one assignment, other containers
/// (the LRU's deque) by one assign, and the rest (enums, integers, a
/// metric counter's pair) by a static_cast.
template <class To, class From>
void put(To& to, const From& from) {
  if constexpr (std::is_same_v<To, From>) {
    to = from;
  } else if constexpr (requires { to.assign(std::ranges::begin(from), std::ranges::end(from)); }) {
    to.assign(std::ranges::begin(from), std::ranges::end(from));
  } else {
    to = static_cast<To>(from);
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

  /// (when, seq, daemon) of a live armed event, or seq 0 for a stale
  /// handle (fired or cancelled since it was stored).
  static EventImage event_info(const sim::Engine& e, sim::EventId id) {
    if (!id.valid()) {
      return {};
    }
    const std::uint32_t slot = id.slot - 1;
    if (slot >= e.slots_.size() || e.slots_[slot].gen != id.gen) {
      return {};
    }
    for (const sim::Engine::Entry& entry : e.heap_) {
      if (entry.slot == slot && entry.gen == id.gen) {
        return {entry.when, entry.seq, e.slots_[slot].daemon};
      }
    }
    return {};
  }

  static void clear_events(sim::Engine& e) {
    e.heap_.clear();
    e.slots_.clear(); // EventCallback dtors release their arena blocks
    e.free_slots_.clear();
    e.live_ = 0;
    e.daemon_live_ = 0;
  }

  /// schedule_entry() with an explicit sequence number and without
  /// advancing next_seq: re-arms a captured event so it fires at its
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

  // --- directions ------------------------------------------------------------
  //
  // d(img, live) moves one field. d.same(img, live, what) captures layout a
  // fresh boot reproduces and asserts it on restore; given a value rather
  // than an image field (a list's length), it only asserts. d.each(img, live, fn)
  // moves a list entry by entry; restore rebuilds the list from
  // value-initialised entries. d.fixed(img, live, what, fn) moves a list
  // whose length a fresh boot fixes, asserted on restore. d.pid(img, ptr,
  // node) moves a Process*/AddressSpace* as its pid. d.event(img, handle,
  // owner, &Owner::member, args...) moves a pending event: restore re-arms
  // owner.member(args...) at the captured (when, seq), or clears the handle.

  struct Capture {
    static constexpr bool kRestores = false;

    const sim::Engine* engine = nullptr;
    mutable std::size_t claimed = 0; // armed events seen, checked against the engine

    template <class I, class L>
    void operator()(I& img, const L& live) const { put(img, live); }
    template <class I, class L>
    void same(I&& img, const L& live, const char* /*what*/) const {
      if constexpr (std::is_lvalue_reference_v<I>) {
        put(img, live);
      }
    }
    template <class I, class L, class F>
    void each(I& img, const L& live, F&& fn) const {
      img.resize(std::size(live));
      zip(img, live, fn);
    }
    template <class I, class L, class F>
    void fixed(I& img, const L& live, const char* /*what*/, F&& fn) const { each(img, live, fn); }
    template <class P>
    void pid(Pid& pid, const P* ptr, const os::Node& /*node*/) const { pid = ptr->pid(); }
    template <class O, class M, class... A>
    void event(EventImage& img, sim::EventId id, const O& /*owner*/, M /*member*/,
               const A&... /*args*/) const {
      img = event_info(*engine, id);
      claimed += img.seq != 0 ? 1 : 0;
    }
  };

  struct Restore {
    static constexpr bool kRestores = true;

    sim::Engine* engine = nullptr;

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
      os::Process* p = node.find_process(pid);
      HPMMAP_ASSERT(p != nullptr, "snapshot: image references a pid the world does not hold");
      if constexpr (std::is_same_v<P, os::Process>) {
        ptr = p;
      } else {
        ptr = &p->as_;
      }
    }
    template <class O, class M, class... A>
    void event(const EventImage& img, sim::EventId& id, O& owner, M member, A... args) const {
      id = img.seq == 0 ? sim::EventId{}
                        : schedule_raw(*engine, img.when, img.seq, img.daemon,
                                       [o = &owner, member, args...] { (o->*member)(args...); });
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

    void transfer(Img<D, BuddyImage>& img, Live<D, mm::BuddyAllocator>& b) const {
      d.same(img.range, b.range_, "snapshot: buddy layout mismatch");
      d.same(img.max_order, b.max_order_, "snapshot: buddy layout mismatch");
      d(img.free_bytes, b.free_bytes_);
      d.fixed(img.lists, b.lists_, "snapshot: buddy order count mismatch", [&](auto& li, auto& l) {
        d.same(li.bits.size(), l.bits.size(), "snapshot: buddy bitmap length mismatch");
        d.same(li.summary.size(), l.summary.size(), "snapshot: buddy summary length mismatch");
        d(li, l);
      });
      d.each(img.corrupt_blocks, b.corrupt_blocks_, [&](auto& ci, auto& c) {
        d(ci.addr, c.first);
        d(ci.order, c.second);
      });
      d(img.stats, b.stats_);
    }

    void transfer(Img<D, MemoryImage>& img, Live<D, mm::MemorySystem>& ms) const {
      d(img.rng, ms.rng_);
      d.fixed(img.zones, ms.zones_, "snapshot: zone count mismatch", [&](auto& zi, auto& z) {
        transfer(zi.buddy, z.buddy);
        d(zi.cache.lru, z.cache.lru_);
        if constexpr (D::kRestores) {
          z.cache.reindex();
        }
        d(zi.cache.state, z.cache.state_);
        d(zi.online_bytes, z.online_bytes);
        d(zi.compact_cursor, z.compact_cursor);
        d(zi.compact_defer, z.compact_defer);
      });
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
      d.event(img.pending_scan, t.pending_scan_, t, &mm::ThpService::scan_tick);
      d.event(img.wake_pending, t.wake_pending_, t, &mm::ThpService::wake_tick);
      d.each(img.pending_collapses, t.pending_collapses_, [&](auto& ci, auto& c) {
        d(ci.token, c.token);
        d.pid(ci.pid, c.as, node);
        d(ci.region, c.region);
        d(ci.mapped_small, c.mapped_small);
        d.event(ci.event, c.event, t, &mm::ThpService::collapse_tick, c.token);
      });
      d.each(img.pending_merges, t.pending_merges_, [&](auto& mi, auto& m) {
        d(mi.token, m.token);
        d.pid(mi.pid, m.as, node);
        d(mi.region, m.region);
        d(mi.huge_phys, m.huge_phys);
        d.event(mi.event, m.event, t, &mm::ThpService::finish_merge, m.token);
      });
      d(img.next_token, t.next_token_);
      d(img.stats, t.stats_);
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
      d(img.registry_slots, m.registry_.slots_);
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

    void transfer(Img<D, NodeImage>& img, Live<D, os::Node>& n) const {
      d.same(img.clock_hz, n.config_.machine.clock_hz, "snapshot: node clock mismatch");
      d.same(img.has_hugetlb, n.hugetlb_ != nullptr, "snapshot: hugetlb presence mismatch");
      d.same(img.has_module, n.module_ != nullptr, "snapshot: module presence mismatch");
      d.same(img.has_thp, n.thp_ != nullptr, "snapshot: thp presence mismatch");
      d.same(img.has_smp, n.smp_ != nullptr, "snapshot: smp presence mismatch");
      d(img.rng, n.rng_);
      d.same(img.scheduler.pinned_weight.size(), n.scheduler_.state_.pinned_weight.size(),
             "snapshot: scheduler core count mismatch");
      d(img.scheduler, n.scheduler_.state_);
      if constexpr (D::kRestores) {
        n.scheduler_.dirty_ = true; // mutable caches recompute lazily
      }
      d(img.bw, n.bw_.state_);
      transfer(img.memory, *n.memory_);
      if (img.has_hugetlb) {
        d.fixed(img.hugetlb.pool, n.hugetlb_->state_.pool, "snapshot: hugetlb zone count mismatch",
                [&](auto& pi, auto& p) {
                  d.same(pi.pooled.size(), p.pooled.size(),
                         "snapshot: hugetlb pooled bitmap length mismatch");
                });
        d(img.hugetlb, n.hugetlb_->state_);
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
      if (img.has_module) {
        transfer(img.module, *n.module_, n);
      }
      if (img.has_thp) {
        transfer(img.thp, *n.thp_, n);
      }
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
      d.event(img.kswapd, n.kswapd_event_, n, &os::Node::kswapd_tick);
    }

    void transfer(Img<D, BuildImage>& img, Live<D, workloads::KernelBuild>& kb) const {
      d(img.rng, kb.rng_);
      d.fixed(img.jobs, kb.jobs_, "snapshot: build job count mismatch", [&](auto& ji, auto& j) {
        d(ji.blocks, j.blocks);
        d(ji.sched_id, j.sched.id);
        d(ji.sched_gen, j.sched.gen);
        d(ji.bw_id, j.bw.id);
        d(ji.home, j.home);
        d(ji.phase, j.phase);
        d(ji.live, j.live);
        const auto slot = static_cast<std::size_t>(&j - kb.jobs_.data());
        d.event(ji.pending, j.pending, kb,
                j.live ? &workloads::KernelBuild::job_step : &workloads::KernelBuild::spawn_job,
                slot);
      });
      d(img.stats, kb.stats_);
      d(img.running, kb.running_);
    }

    void transfer(Img<D, MetricsImage>& img, Live<D, trace::MetricRegistry>& reg) const {
      d.each(img.counters, reg.counters_, d);
      d.each(img.histograms, reg.histograms_, [&](auto& hi, auto& h) {
        d(hi.first, h.first);
        d(hi.second.stats, h.second.stats_.state_);
        d(hi.second.p50, h.second.p50_.state_);
        d(hi.second.p95, h.second.p95_.state_);
        d(hi.second.p99, h.second.p99_.state_);
      });
    }

    void transfer(Img<D, WorldImage>& img, const std::vector<os::Node*>& nodes,
                  const std::vector<BuildRef>& builds) const {
      Live<D, sim::Engine>& e = *d.engine;
      if constexpr (D::kRestores) {
        clear_events(e);
      }
      d(img.engine, e.state_);
      d.fixed(img.nodes, nodes, "snapshot: node count mismatch",
              [&](auto& ni, os::Node* n) { transfer(ni, *n); });
      d.fixed(img.builds, builds, "snapshot: build count mismatch", [&](auto& bi, auto& b) {
        d.same(bi.node_index, b.node_index, "snapshot: build node mismatch");
        transfer(bi, *b.build);
      });
      if constexpr (!D::kRestores) {
        // An event no owner claimed would silently vanish from the resumed run.
        HPMMAP_ASSERT(d.claimed == e.live_,
                      "snapshot: engine holds events no owner accounted for");
      }
      d(img.trace, trace::recorder().state_);
      transfer(img.metrics, trace::metrics());
      // The injector's on_fire hook is deliberately untouched: the resumed
      // harness installs its own audit hook before restore.
      d(img.injector, verify::injector().state_);
    }
  };
};

WorldImage capture_world(sim::Engine& engine, const std::vector<os::Node*>& nodes,
                         const std::vector<BuildRef>& builds) {
  WorldImage image;
  Access::Transfer<Access::Capture>{{.engine = &engine}}.transfer(image, nodes, builds);
  return image;
}

void restore_world(const WorldImage& image, sim::Engine& engine,
                   const std::vector<os::Node*>& nodes,
                   const std::vector<BuildRef>& builds) {
  Access::Transfer<Access::Restore>{{.engine = &engine}}.transfer(image, nodes, builds);
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

BuddyImage capture_buddy(const mm::BuddyAllocator& buddy) {
  BuddyImage image;
  Access::Transfer<Access::Capture>{}.transfer(image, buddy);
  return image;
}

} // namespace hpmmap::snapshot
