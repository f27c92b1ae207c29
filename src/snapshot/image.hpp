// Snapshot images: every piece of node state the simulation can hold at a
// quiesced instant (see DESIGN.md §12).
//
// Where an owner's members copy one-to-one, the image holds the owner's
// own `State` aggregate (sim::Engine::State, mm::PageCache::State, ...)
// or its element type (os::Scheduler::Thread, ...), so each such member
// is declared once, in the owner. The structs below hold the rest.
//
// The contract is verbatim capture: each image field is a bit-for-bit
// copy of the live structure's field, with exactly two translations —
// raw pointers (AddressSpace*/Process*) become pids, and an owner's armed
// engine event handle becomes an EventImage (firing time, sequence number,
// daemon flag) in that owner's image, so restore can re-arm the identical
// callback. Containers whose live type differs from the image's (the
// page-cache LRU deque, the page-table node pool, the VMA tree) are
// stored as arrays, and sets whose order carries no meaning (swap sets,
// THP's in-flight merges) are stored sorted. Restore overwrites a freshly
// booted world with these images. Only lookup structures are re-derived:
// the VMA tree by re-insert and the page-cache index from the LRU, so a
// resumed run replays the exact event stream the uninterrupted run would
// have produced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "hw/bandwidth.hpp"
#include "hw/tlb.hpp"
#include "linux_mm/buddy_allocator.hpp"
#include "linux_mm/fault.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/page_cache.hpp"
#include "linux_mm/smp.hpp"
#include "linux_mm/thp.hpp"
#include "linux_mm/vma.hpp"
#include "core/kitten_allocator.hpp"
#include "core/module.hpp"
#include "core/pid_registry.hpp"
#include "os/process.hpp"
#include "os/scheduler.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"
#include "verify/fault_inject.hpp"
#include "workloads/kernel_build.hpp"

namespace hpmmap::snapshot {

/// (pid, virtual address) — the pointer-free spelling of the
/// (AddressSpace*/Process*, Addr) pairs the mm layer queues.
struct PidAddr {
  Pid pid = 0;
  Addr addr = 0;
};

/// `pages` consecutive 4 KiB pages of process `pid` from `first` up: one
/// run of the swap model's anon LRU (os::AnonLru).
struct AnonRunImage {
  Pid pid = 0;
  Addr first = 0;
  std::uint32_t pages = 0;
};

// --- engine ---------------------------------------------------------------

/// One owner's engine event handle. The engine numbers events from 1, so
/// seq 0 means nothing is pending.
struct EventImage {
  Cycles when = 0;
  std::uint64_t seq = 0;
  bool daemon = false;
};

// --- hw / linux_mm --------------------------------------------------------

struct CorruptBlockImage {
  Addr addr = 0;
  std::uint32_t order = 0;
};

struct BuddyImage {
  Range range{};
  std::uint32_t max_order = 0;
  std::uint64_t free_bytes = 0;
  std::vector<mm::BuddyAllocator::OrderList> lists;
  std::vector<CorruptBlockImage> corrupt_blocks;
  mm::BuddyStats stats{};
};

struct CacheImage {
  std::vector<mm::PageCache::Entry> lru; // oldest first; restore re-indexes them
  mm::PageCache::State state;
};

struct ZoneImage {
  BuddyImage buddy;
  CacheImage cache;
  std::uint64_t online_bytes = 0;
  Addr compact_cursor = 0;
  std::uint32_t compact_defer = 0;
};

struct MemoryImage {
  Rng rng{0};
  std::vector<ZoneImage> zones;
};

/// One mm's SMP lock state: the release points every lock holds on the
/// virtual clock, plus the deferred-shootdown backlog.
struct SmpMmImage {
  Pid pid = 0;
  Cycles writer_free_at = 0;
  Cycles readers_free_at = 0;
  std::vector<Cycles> pt_shard_free_at; // size 1 when sharding is off
  std::uint64_t pending_shootdown_pages = 0;
};

/// SmpDomain verbatim: zone-lock and per-CPU IPI-backlog release points,
/// per-mm lock state, every pcp list's frames in LIFO order, and the
/// aggregate contention counters. A capture taken mid-storm carries
/// future release stamps; restore must reproduce them exactly or the
/// resumed run's waits diverge from the uninterrupted run's.
struct SmpImage {
  std::vector<Cycles> zone_lock_free_at;
  std::vector<Cycles> cpu_stall;
  std::vector<SmpMmImage> mms; // sorted by pid, the live container's order
  std::vector<std::vector<Addr>> pcp; // [cpu * zones + zone], list order
  mm::SmpStats stats{};
};

/// A hand list: a VMA record keeps the object's old 32-byte layout, but
/// field by field — the padding byte after `locked` is indeterminate in a
/// live VMA, so a zero is written in its place and the loaded byte is
/// dropped.
static_assert(sizeof(mm::Vma) == 32 && offsetof(mm::Vma, prot) == 16 &&
                  offsetof(mm::Vma, kind) == 20 && offsetof(mm::Vma, thp_eligible) == 21 &&
                  offsetof(mm::Vma, locked) == 22 && offsetof(mm::Vma, hugetlb_size) == 24,
              "the v4 VMA record mirrors the mm::Vma layout");

template <class Ar>
void fields(Ar& ar, mm::Vma& v) {
  std::uint8_t pad = 0;
  ar(v.range, v.prot, v.kind, v.thp_eligible, v.locked, pad, v.hugetlb_size);
}

struct PageTableImage {
  // nodes_ flattened: node i occupies slots [512*i, 512*(i+1)).
  std::vector<std::uint64_t> slots;
  std::vector<std::uint16_t> used;
  std::vector<std::uint32_t> free_nodes;
  hw::MappingMix mix{};
  std::uint64_t table_pages = 1;
};

struct AddressSpaceImage {
  Pid pid = 0;
  std::vector<mm::Vma> vmas; // tree order; re-inserting reproduces the map
  PageTableImage pt;
  Addr heap_base = 0;
  Addr heap_end = 0;
  Cycles locked_until = 0;
  std::vector<Addr> swapped; // membership-only set, sorted on capture
  std::uint8_t zone_policy = 0;
  ZoneId home_zone = 0;
  std::uint32_t zone_count = 1;
};

struct ThpCollapseImage {
  std::uint64_t token = 0;
  Pid pid = 0;
  Addr region = 0;
  std::uint32_t mapped_small = 0;
  EventImage event;
};

struct ThpMergeImage {
  std::uint64_t token = 0;
  Pid pid = 0;
  Addr region = 0;
  Addr huge_phys = 0;
  EventImage event;
};

struct ThpImage {
  std::vector<Pid> processes;
  std::vector<PidAddr> enter_queue;
  std::vector<PidAddr> inflight; // membership-only
  std::uint64_t scan_rr = 0;
  Addr scan_cursor = 0;
  Cycles scan_period = 0;
  Cycles last_scan = 0;
  bool running = false;
  EventImage pending_scan;
  EventImage wake_pending;
  std::vector<ThpCollapseImage> pending_collapses;
  std::vector<ThpMergeImage> pending_merges;
  std::uint64_t next_token = 1;
  mm::ThpStats stats{};
};

struct ModuleContextImage {
  Pid pid = 0; // 0 when the context is dead (as == nullptr after restore)
  std::vector<mm::Vma> vmas;
  Addr mmap_cursor = 0;
  Addr heap_base = 0;
  Addr heap_break = 0;
  bool live = false;
};

struct ModuleImage {
  Rng rng{0};
  std::vector<std::vector<Range>> offlined;
  std::vector<std::vector<BuddyImage>> kitten_zones;
  core::KittenStats kitten_stats{};
  std::vector<core::PidRegistry::Slot> registry_slots;
  std::uint64_t registry_size = 0;
  std::uint64_t registry_tombstones = 0;
  std::vector<ModuleContextImage> contexts;
  core::ModuleStats stats{};
};

// --- os -------------------------------------------------------------------

struct ProcessImage {
  Pid pid = 0;
  std::string name;
  std::uint8_t policy = 0; // os::MmPolicy
  AddressSpaceImage as;
  std::int32_t core = -1;
  std::uint32_t sched_id = 0;
  std::uint32_t sched_gen = 0;
  mm::FaultStats fault_stats{};
  bool alive = true;
};

struct NodeImage {
  double clock_hz = 0.0;
  Rng rng{0};
  os::Scheduler::State scheduler;
  hw::BandwidthModel::State bw;
  MemoryImage memory;
  bool has_hugetlb = false;
  mm::HugetlbPool::State hugetlb;
  bool has_module = false;
  ModuleImage module;
  bool has_thp = false;
  ThpImage thp;
  bool has_smp = false;
  SmpImage smp;
  std::vector<ProcessImage> processes;
  Pid next_pid = 1000;
  std::vector<AnonRunImage> anon_lru; // oldest run first
  std::uint64_t swapped_out_total = 0;
  EventImage kswapd;
};

/// A hand list (snapshot/archive.hpp): each presence flag is read before
/// its image, which is absent from the file when the flag is off, and the
/// file holds `processes` before the module.
template <class Ar>
void fields(Ar& ar, NodeImage& n) {
  ar(n.clock_hz, n.rng, n.scheduler, n.bw, n.memory, n.has_hugetlb);
  if (n.has_hugetlb) {
    ar(n.hugetlb);
  }
  ar(n.processes, n.has_module);
  if (n.has_module) {
    ar(n.module);
  }
  ar(n.has_thp);
  if (n.has_thp) {
    ar(n.thp);
  }
  ar(n.has_smp);
  if (n.has_smp) {
    ar(n.smp);
  }
  ar(n.next_pid, n.anon_lru, n.swapped_out_total, n.kswapd);
}

// --- workloads ------------------------------------------------------------

struct BuildJobImage {
  std::vector<workloads::KernelBuild::Block> blocks;
  std::uint32_t sched_id = 0;
  std::uint32_t sched_gen = 0;
  std::uint32_t bw_id = 0;
  ZoneId home = 0;
  std::uint32_t phase = 0;
  bool live = false;
  EventImage pending; // spawn_job while !live, else job_step
};

struct BuildImage {
  std::uint32_t node_index = 0;
  Rng rng{0};
  std::vector<BuildJobImage> jobs;
  workloads::KernelBuildStats stats{};
  bool running = false;
};

// --- per-run context (trace / metrics / injector) --------------------------

struct HistogramImage {
  RunningStats::State stats;
  P2Quantile::State p50;
  P2Quantile::State p95;
  P2Quantile::State p99;
};

struct MetricsImage {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, HistogramImage>> histograms;
};

// --- the world ------------------------------------------------------------

/// Full quiesced-instant state of an engine plus its nodes and builds.
/// Copyable: the amortized-aging sweep captures once and restores the
/// same image into many worlds.
struct WorldImage {
  sim::Engine::State engine;
  std::vector<NodeImage> nodes;
  std::vector<BuildImage> builds;
  trace::FlightRecorder::State trace;
  MetricsImage metrics;
  verify::FaultInjector::State injector;
};

} // namespace hpmmap::snapshot
