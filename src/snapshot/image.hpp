// Snapshot images: plain value-type mirrors of every piece of node state
// the simulation can hold at a quiesced instant (see DESIGN.md §12).
//
// The contract is verbatim capture: each image field is a bit-for-bit
// copy of the live structure's field, with exactly two translations —
// raw pointers (AddressSpace*/Process*) become pids, and armed engine
// events become EventRecords naming their owner, firing time and
// sequence number so restore can re-arm the identical callback. Sets
// whose order carries no meaning (swap sets, THP's in-flight merges) are
// stored sorted. Restore overwrites a freshly booted world with these
// images; nothing is re-derived, so a resumed run replays the exact event
// stream the uninterrupted run would have produced.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "hw/tlb.hpp"
#include "linux_mm/buddy_allocator.hpp"
#include "linux_mm/fault.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/smp.hpp"
#include "linux_mm/thp.hpp"
#include "linux_mm/vma.hpp"
#include "core/kitten_allocator.hpp"
#include "core/module.hpp"
#include "os/process.hpp"
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

// --- engine ---------------------------------------------------------------

struct EngineImage {
  Cycles now = 0;
  std::uint64_t next_seq = 1;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  bool stopped = false;
};

/// Every armed event belongs to a known owner; the kind names the member
/// function the original lambda called, so restore re-arms a callback
/// with identical behavior.
enum class EventKind : std::uint8_t {
  kKswapd,      // Node::kswapd_tick
  kThpScan,     // ThpService::scan_tick
  kThpWake,     // ThpService::wake_tick
  kThpCollapse, // ThpService::collapse_tick(token)
  kThpMerge,    // ThpService::finish_merge(token)
  kBuildSpawn,  // KernelBuild::spawn_job(slot)
  kBuildStep,   // KernelBuild::job_step(slot)
};

struct EventRecord {
  Cycles when = 0;
  std::uint64_t seq = 0;
  bool daemon = false;
  EventKind kind = EventKind::kKswapd;
  std::uint32_t node_index = 0;
  std::uint32_t build_index = 0;
  std::uint64_t aux = 0; // THP token or build job slot
};

// --- hw / linux_mm --------------------------------------------------------

struct MemMapImage {
  Range range{};
  std::vector<std::uint8_t> meta;
  // The open-addressing link table verbatim (including empty slots), so
  // probe chains restore bit-identically.
  std::vector<std::uint32_t> slot_key;
  std::vector<std::uint32_t> slot_next;
  std::vector<std::uint32_t> slot_prev;
  std::uint64_t link_count = 0;
};

struct OrderListImage {
  std::vector<std::uint64_t> bits;
  std::vector<std::uint64_t> summary;
  std::uint64_t count = 0;
  std::uint64_t scan_hint = 0;
};

struct CorruptBlockImage {
  Addr addr = 0;
  std::uint32_t order = 0;
};

struct BuddyImage {
  Range range{};
  std::uint32_t max_order = 0;
  std::uint64_t free_bytes = 0;
  std::vector<OrderListImage> lists;
  MemMapImage map;
  std::vector<CorruptBlockImage> corrupt_blocks;
  mm::BuddyStats stats{};
};

struct CacheImage {
  std::uint32_t head = 0;
  std::uint32_t tail = 0;
  std::uint64_t count = 0;
  std::uint64_t cached_bytes = 0;
  std::uint64_t free_floor = 0;
  double dirty_fraction = 0.0;
  std::uint64_t grow_count = 0;
};

struct ZoneImage {
  BuddyImage buddy;
  CacheImage cache;
  std::uint64_t online_bytes = 0;
  Addr compact_cursor = 0;
  std::uint32_t compact_defer = 0;
};

struct MemoryImage {
  std::array<std::uint64_t, 4> rng{};
  std::vector<ZoneImage> zones;
};

struct HugetlbZonePoolImage {
  std::uint32_t head = 0;
  std::uint64_t count = 0;
};

struct HugetlbImage {
  std::vector<HugetlbZonePoolImage> pool;
  std::vector<std::uint64_t> total;
  mm::HugetlbStats stats{};
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
};

struct ThpMergeImage {
  std::uint64_t token = 0;
  Pid pid = 0;
  Addr region = 0;
  Addr huge_phys = 0;
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
  std::vector<ThpCollapseImage> pending_collapses;
  std::vector<ThpMergeImage> pending_merges;
  std::uint64_t next_token = 1;
  mm::ThpStats stats{};
};

struct RegistrySlotImage {
  std::uint8_t state = 0;
  Pid pid = 0;
  std::uint32_t context = 0;
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
  std::array<std::uint64_t, 4> rng{};
  std::vector<std::vector<Range>> offlined;
  std::vector<std::vector<BuddyImage>> kitten_zones;
  core::KittenStats kitten_stats{};
  std::vector<RegistrySlotImage> registry_slots;
  std::uint64_t registry_size = 0;
  std::uint64_t registry_tombstones = 0;
  std::vector<ModuleContextImage> contexts;
  core::ModuleStats stats{};
};

// --- os -------------------------------------------------------------------

struct SchedulerThreadImage {
  std::int32_t core = -1;
  double weight = 0.0;
  std::uint32_t gen = 0;
  bool live = false;
};

struct SchedulerImage {
  std::vector<SchedulerThreadImage> threads;
  std::vector<std::uint32_t> free_slots;
  std::uint64_t live_count = 0;
  std::vector<double> pinned_weight;
  double unpinned_weight = 0.0;
};

struct BandwidthEntryImage {
  std::uint32_t consumer = 0;
  ZoneId zone = 0;
  double demand = 0.0;
};

struct BandwidthImage {
  std::vector<BandwidthEntryImage> entries;
  std::vector<double> zone_demand;
  double capacity = 0.0;
  std::uint32_t next_id = 1;
};

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
  std::array<std::uint64_t, 4> rng{};
  SchedulerImage scheduler;
  BandwidthImage bw;
  MemoryImage memory;
  bool has_hugetlb = false;
  HugetlbImage hugetlb;
  bool has_module = false;
  ModuleImage module;
  bool has_thp = false;
  ThpImage thp;
  bool has_smp = false;
  SmpImage smp;
  std::vector<ProcessImage> processes;
  Pid next_pid = 1000;
  std::vector<PidAddr> anon_lru;
  std::uint64_t swapped_out_total = 0;
};

// --- workloads ------------------------------------------------------------

struct BuildBlockImage {
  ZoneId zone = 0;
  Addr addr = 0;
  std::uint32_t order = 0;
};

struct BuildJobImage {
  std::vector<BuildBlockImage> blocks;
  std::uint32_t sched_id = 0;
  std::uint32_t sched_gen = 0;
  std::uint32_t bw_id = 0;
  ZoneId home = 0;
  std::uint32_t phase = 0;
  bool live = false;
};

struct BuildImage {
  std::uint32_t node_index = 0;
  std::array<std::uint64_t, 4> rng{};
  std::vector<BuildJobImage> jobs;
  workloads::KernelBuildStats stats{};
  bool running = false;
};

// --- per-run context (trace / metrics / injector) --------------------------

struct TraceImage {
  std::vector<trace::Event> ring; // raw storage order, not rotated
  std::uint64_t capacity = 0;
  std::uint64_t head = 0;
  std::uint64_t dropped = 0;
  std::uint64_t recorded = 0;
};

struct RunningStatsImage {
  std::uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
};

struct P2QuantileImage {
  double q = 0.0;
  std::uint64_t n = 0;
  std::array<double, 5> heights{};
  std::array<double, 5> positions{};
  std::array<double, 5> desired{};
  std::array<double, 5> increments{};
};

struct HistogramImage {
  RunningStatsImage stats;
  P2QuantileImage p50;
  P2QuantileImage p95;
  P2QuantileImage p99;
};

struct MetricsImage {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, HistogramImage>> histograms;
};

struct InjectorImage {
  verify::InjectionPlan plan{};
  std::array<verify::PointStats, verify::kInjectPointCount> stats{};
  std::array<std::uint64_t, 4> rng{};
  bool armed = false;
};

// --- the world ------------------------------------------------------------

/// Full quiesced-instant state of an engine plus its nodes and builds.
/// Copyable: the amortized-aging sweep captures once and restores the
/// same image into many worlds.
struct WorldImage {
  /// Structural identity of the world this image came from; restore
  /// asserts the target world matches before overwriting anything.
  std::vector<std::pair<std::string, std::uint64_t>> fingerprint;
  EngineImage engine;
  std::vector<NodeImage> nodes;
  std::vector<BuildImage> builds;
  std::vector<EventRecord> events;
  TraceImage trace;
  MetricsImage metrics;
  InjectorImage injector;
};

} // namespace hpmmap::snapshot
