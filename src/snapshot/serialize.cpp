// Binary save/load for WorldImage (--snapshot-out / --snapshot-in).
//
// Versioned, length-prefixed, and raw: every scalar and every array of
// numbers is stored as its in-memory little-endian bytes, each array in
// one run copied with a single memcpy, so save and load move at memory
// speed (DESIGN.md §12.6). Plain-old-data stats structs are written as
// raw object bytes too. That is a same-architecture contract — a
// snapshot file is a local artifact for resuming sweeps, not an
// interchange format or an archive; the static_assert below pins the
// byte order and the version word refuses images from older builds.
// save() streams to the file through a small staging buffer; load()
// reads the file in one sized read and checks every length prefix
// against the bytes that remain before allocating for it. Trace events
// are the one pointer-bearing type: their name/argument strings are
// written out as strings and interned into a process-lifetime pool on
// load, preserving the recorder's "names outlive the recorder" contract.

#include "snapshot/snapshot.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <ranges>
#include <set>
#include <span>
#include <type_traits>

#include "common/assert.hpp"

namespace hpmmap::snapshot {
namespace {

static_assert(std::endian::native == std::endian::little,
              "snapshot images store numbers as raw little-endian bytes");

constexpr std::uint32_t kMagic = 0x4e535048; // "HPSN"
// v3: trace::Event carries a causal span id. v4: the mem_map link table
// is laid out by Fibonacci hashing, so older slot layouts do not probe.
constexpr std::uint32_t kVersion = 4;

/// Loaded trace strings live until process exit; std::set node stability
/// keeps every handed-out c_str() valid as the pool grows.
const char* intern(const std::string& s) {
  if (s.empty()) {
    return nullptr;
  }
  static std::mutex mu;
  static auto* pool = new std::set<std::string>();
  const std::lock_guard<std::mutex> lock(mu);
  return pool->insert(s).first->c_str();
}

/// A contiguous array of numbers: stored as one raw byte run.
template <typename R>
concept NumberArray = std::ranges::contiguous_range<R> &&
                      std::is_arithmetic_v<std::ranges::range_value_t<R>>;

/// Streams the encoding to the file: small fields gather in a fixed
/// staging buffer, and a run too large for it is written straight out.
class Writer {
 public:
  explicit Writer(std::ofstream& out) : out_(out) {}

  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&v, sizeof(T));
  }
  /// The whole array as one run, no length (fixed-size or shared length).
  template <NumberArray R>
  void array(const R& r) {
    const std::span s(r);
    raw(s.data(), s.size_bytes());
  }
  /// Length prefix, then the array as one run.
  template <NumberArray R>
  void vec(const R& r) {
    u64(std::ranges::size(r));
    array(r);
  }
  void flush() {
    out_.write(stage_.get(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  static constexpr std::size_t kStageBytes = 64 * 1024;

  void raw(const void* p, std::size_t n) {
    if (n > kStageBytes - used_) {
      flush();
      if (n >= kStageBytes) {
        out_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
        return;
      }
    }
    if (n != 0) {
      std::memcpy(stage_.get() + used_, p, n);
      used_ += n;
    }
  }

  std::ofstream& out_;
  std::unique_ptr<char[]> stage_ = std::make_unique_for_overwrite<char[]>(kStageBytes);
  std::size_t used_ = 0;
};

/// Decodes an image held whole in memory. Every read is bounds-checked,
/// and every length prefix is checked against the bytes that remain
/// before anything is sized from it, so a corrupt or cut-off file fails
/// with the loader's message instead of a wild allocation.
class Reader {
 public:
  Reader(std::unique_ptr<char[]> data, std::size_t size)
      : buf_(std::move(data)), size_(size) {}

  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int32_t i32() { return scalar<std::int32_t>(); }
  bool b() { return u8() != 0; }
  double f64() { return scalar<double>(); }
  std::string str() {
    const std::uint64_t n = u64();
    const char* p = take(n);
    return std::string(p, static_cast<std::size_t>(n));
  }
  template <typename T>
  void pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
  }
  /// Fill an already-sized array from one run.
  template <NumberArray R>
  void array(R& r) {
    const std::span s(r);
    const char* p = take(s.size_bytes());
    if (!s.empty()) {
      std::memcpy(s.data(), p, s.size_bytes());
    }
  }
  /// Length prefix, then the array as one run.
  template <typename T>
  void vec(std::vector<T>& v) {
    v.resize(count(sizeof(T)));
    array(v);
  }
  /// A length prefix for elements that each encode to at least `unit`
  /// bytes; more than the remaining bytes can hold is a cut-off file.
  std::size_t count(std::size_t unit) {
    const std::uint64_t n = u64();
    HPMMAP_ASSERT(n <= (size_ - pos_) / unit, "snapshot: truncated image file");
    return static_cast<std::size_t>(n);
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == size_; }

 private:
  template <typename T>
  T scalar() {
    T v{};
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }
  const char* take(std::uint64_t n) {
    HPMMAP_ASSERT(n <= size_ - pos_, "snapshot: truncated image file");
    const char* p = buf_.get() + pos_;
    pos_ += static_cast<std::size_t>(n);
    return p;
  }
  std::unique_ptr<char[]> buf_;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

// --- hw / linux_mm ----------------------------------------------------------

void put(Writer& w, const MemMapImage& m) {
  w.pod(m.range);
  w.vec(m.meta);
  w.u64(m.slot_key.size());
  w.array(m.slot_key);
  w.array(m.slot_next);
  w.array(m.slot_prev);
  w.u64(m.link_count);
}

MemMapImage get_mem_map(Reader& r) {
  MemMapImage m;
  r.pod(m.range);
  r.vec(m.meta);
  const std::size_t slots = r.count(3 * sizeof(std::uint32_t));
  m.slot_key.resize(slots);
  m.slot_next.resize(slots);
  m.slot_prev.resize(slots);
  r.array(m.slot_key);
  r.array(m.slot_next);
  r.array(m.slot_prev);
  m.link_count = r.u64();
  return m;
}

void put(Writer& w, const BuddyImage& b) {
  w.pod(b.range);
  w.u32(b.max_order);
  w.u64(b.free_bytes);
  w.u64(b.lists.size());
  for (const OrderListImage& l : b.lists) {
    w.vec(l.bits);
    w.vec(l.summary);
    w.u64(l.count);
    w.u64(l.scan_hint);
  }
  put(w, b.map);
  w.u64(b.corrupt_blocks.size());
  for (const CorruptBlockImage& c : b.corrupt_blocks) {
    w.u64(c.addr);
    w.u32(c.order);
  }
  w.pod(b.stats);
}

BuddyImage get_buddy(Reader& r) {
  BuddyImage b;
  r.pod(b.range);
  b.max_order = r.u32();
  b.free_bytes = r.u64();
  b.lists.resize(r.count(32)); // two lengths, count, scan_hint
  for (OrderListImage& l : b.lists) {
    r.vec(l.bits);
    r.vec(l.summary);
    l.count = r.u64();
    l.scan_hint = r.u64();
  }
  b.map = get_mem_map(r);
  b.corrupt_blocks.resize(r.count(12)); // addr, order
  for (CorruptBlockImage& c : b.corrupt_blocks) {
    c.addr = r.u64();
    c.order = r.u32();
  }
  r.pod(b.stats);
  return b;
}

void put(Writer& w, const std::array<std::uint64_t, 4>& rng) { w.array(rng); }

std::array<std::uint64_t, 4> get_rng(Reader& r) {
  std::array<std::uint64_t, 4> rng{};
  r.array(rng);
  return rng;
}

void put(Writer& w, const MemoryImage& m) {
  put(w, m.rng);
  w.u64(m.zones.size());
  for (const ZoneImage& z : m.zones) {
    put(w, z.buddy);
    w.u32(z.cache.head);
    w.u32(z.cache.tail);
    w.u64(z.cache.count);
    w.u64(z.cache.cached_bytes);
    w.u64(z.cache.free_floor);
    w.f64(z.cache.dirty_fraction);
    w.u64(z.cache.grow_count);
    w.u64(z.online_bytes);
    w.u64(z.compact_cursor);
    w.u32(z.compact_defer);
  }
}

MemoryImage get_memory(Reader& r) {
  MemoryImage m;
  m.rng = get_rng(r);
  m.zones.resize(r.count(152)); // fixed fields of buddy, map, cache, zone
  for (ZoneImage& z : m.zones) {
    z.buddy = get_buddy(r);
    z.cache.head = r.u32();
    z.cache.tail = r.u32();
    z.cache.count = r.u64();
    z.cache.cached_bytes = r.u64();
    z.cache.free_floor = r.u64();
    z.cache.dirty_fraction = r.f64();
    z.cache.grow_count = r.u64();
    z.online_bytes = r.u64();
    z.compact_cursor = r.u64();
    z.compact_defer = r.u32();
  }
  return m;
}

void put(Writer& w, const std::vector<mm::Vma>& vmas) {
  w.u64(vmas.size());
  for (const mm::Vma& v : vmas) w.pod(v);
}

std::vector<mm::Vma> get_vmas(Reader& r) {
  std::vector<mm::Vma> vmas(r.count(sizeof(mm::Vma)));
  for (mm::Vma& v : vmas) r.pod(v);
  return vmas;
}

void put(Writer& w, const PidAddr& pa) {
  w.u32(pa.pid);
  w.u64(pa.addr);
}

PidAddr get_pid_addr(Reader& r) {
  PidAddr pa;
  pa.pid = r.u32();
  pa.addr = r.u64();
  return pa;
}

void put(Writer& w, const AddressSpaceImage& a) {
  w.u32(a.pid);
  put(w, a.vmas);
  w.vec(a.pt.slots);
  w.vec(a.pt.used);
  w.vec(a.pt.free_nodes);
  w.pod(a.pt.mix);
  w.u64(a.pt.table_pages);
  w.u64(a.heap_base);
  w.u64(a.heap_end);
  w.u64(a.locked_until);
  w.vec(a.swapped);
  w.u8(a.zone_policy);
  w.u32(a.home_zone);
  w.u32(a.zone_count);
}

AddressSpaceImage get_address_space(Reader& r) {
  AddressSpaceImage a;
  a.pid = r.u32();
  a.vmas = get_vmas(r);
  r.vec(a.pt.slots);
  r.vec(a.pt.used);
  r.vec(a.pt.free_nodes);
  r.pod(a.pt.mix);
  a.pt.table_pages = r.u64();
  a.heap_base = r.u64();
  a.heap_end = r.u64();
  a.locked_until = r.u64();
  r.vec(a.swapped);
  a.zone_policy = r.u8();
  a.home_zone = r.u32();
  a.zone_count = r.u32();
  return a;
}

void put(Writer& w, const ThpImage& t) {
  w.vec(t.processes);
  w.u64(t.enter_queue.size());
  for (const PidAddr& pa : t.enter_queue) put(w, pa);
  w.u64(t.inflight.size());
  for (const PidAddr& pa : t.inflight) put(w, pa);
  w.u64(t.scan_rr);
  w.u64(t.scan_cursor);
  w.u64(t.scan_period);
  w.u64(t.last_scan);
  w.b(t.running);
  w.u64(t.pending_collapses.size());
  for (const ThpCollapseImage& c : t.pending_collapses) {
    w.u64(c.token);
    w.u32(c.pid);
    w.u64(c.region);
    w.u32(c.mapped_small);
  }
  w.u64(t.pending_merges.size());
  for (const ThpMergeImage& m : t.pending_merges) {
    w.u64(m.token);
    w.u32(m.pid);
    w.u64(m.region);
    w.u64(m.huge_phys);
  }
  w.u64(t.next_token);
  w.pod(t.stats);
}

ThpImage get_thp(Reader& r) {
  ThpImage t;
  r.vec(t.processes);
  t.enter_queue.resize(r.count(12)); // pid, addr
  for (PidAddr& pa : t.enter_queue) pa = get_pid_addr(r);
  t.inflight.resize(r.count(12));
  for (PidAddr& pa : t.inflight) pa = get_pid_addr(r);
  t.scan_rr = r.u64();
  t.scan_cursor = r.u64();
  t.scan_period = r.u64();
  t.last_scan = r.u64();
  t.running = r.b();
  t.pending_collapses.resize(r.count(24)); // token, pid, region, mapped_small
  for (ThpCollapseImage& c : t.pending_collapses) {
    c.token = r.u64();
    c.pid = r.u32();
    c.region = r.u64();
    c.mapped_small = r.u32();
  }
  t.pending_merges.resize(r.count(28)); // token, pid, region, huge_phys
  for (ThpMergeImage& m : t.pending_merges) {
    m.token = r.u64();
    m.pid = r.u32();
    m.region = r.u64();
    m.huge_phys = r.u64();
  }
  t.next_token = r.u64();
  r.pod(t.stats);
  return t;
}

void put(Writer& w, const ModuleImage& m) {
  put(w, m.rng);
  w.u64(m.offlined.size());
  for (const std::vector<Range>& zone : m.offlined) {
    w.u64(zone.size());
    for (const Range& rr : zone) w.pod(rr);
  }
  w.u64(m.kitten_zones.size());
  for (const std::vector<BuddyImage>& zone : m.kitten_zones) {
    w.u64(zone.size());
    for (const BuddyImage& b : zone) put(w, b);
  }
  w.pod(m.kitten_stats);
  w.u64(m.registry_slots.size());
  for (const RegistrySlotImage& s : m.registry_slots) {
    w.u8(s.state);
    w.u32(s.pid);
    w.u32(s.context);
  }
  w.u64(m.registry_size);
  w.u64(m.registry_tombstones);
  w.u64(m.contexts.size());
  for (const ModuleContextImage& c : m.contexts) {
    w.u32(c.pid);
    put(w, c.vmas);
    w.u64(c.mmap_cursor);
    w.u64(c.heap_base);
    w.u64(c.heap_break);
    w.b(c.live);
  }
  w.pod(m.stats);
}

ModuleImage get_module(Reader& r) {
  ModuleImage m;
  m.rng = get_rng(r);
  m.offlined.resize(r.count(8)); // length of each zone's list
  for (std::vector<Range>& zone : m.offlined) {
    zone.resize(r.count(sizeof(Range)));
    for (Range& rr : zone) r.pod(rr);
  }
  m.kitten_zones.resize(r.count(8)); // length of each zone's list
  for (std::vector<BuddyImage>& zone : m.kitten_zones) {
    zone.resize(r.count(84)); // fixed fields of a buddy and its map
    for (BuddyImage& b : zone) b = get_buddy(r);
  }
  r.pod(m.kitten_stats);
  m.registry_slots.resize(r.count(9)); // state, pid, context
  for (RegistrySlotImage& s : m.registry_slots) {
    s.state = r.u8();
    s.pid = r.u32();
    s.context = r.u32();
  }
  m.registry_size = r.u64();
  m.registry_tombstones = r.u64();
  m.contexts.resize(r.count(37)); // pid, vma length, cursors, live
  for (ModuleContextImage& c : m.contexts) {
    c.pid = r.u32();
    c.vmas = get_vmas(r);
    c.mmap_cursor = r.u64();
    c.heap_base = r.u64();
    c.heap_break = r.u64();
    c.live = r.b();
  }
  r.pod(m.stats);
  return m;
}

void put(Writer& w, const NodeImage& n) {
  put(w, n.rng);
  w.u64(n.scheduler.threads.size());
  for (const SchedulerThreadImage& t : n.scheduler.threads) {
    w.i32(t.core);
    w.f64(t.weight);
    w.u32(t.gen);
    w.b(t.live);
  }
  w.vec(n.scheduler.free_slots);
  w.u64(n.scheduler.live_count);
  w.vec(n.scheduler.pinned_weight);
  w.f64(n.scheduler.unpinned_weight);
  w.u64(n.bw.entries.size());
  for (const BandwidthEntryImage& e : n.bw.entries) {
    w.u32(e.consumer);
    w.u32(e.zone);
    w.f64(e.demand);
  }
  w.vec(n.bw.zone_demand);
  w.f64(n.bw.capacity);
  w.u32(n.bw.next_id);
  put(w, n.memory);
  w.b(n.has_hugetlb);
  if (n.has_hugetlb) {
    w.u64(n.hugetlb.pool.size());
    for (const HugetlbZonePoolImage& zp : n.hugetlb.pool) {
      w.u32(zp.head);
      w.u64(zp.count);
    }
    w.vec(n.hugetlb.total);
    w.pod(n.hugetlb.stats);
  }
  w.u64(n.processes.size());
  for (const ProcessImage& p : n.processes) {
    w.u32(p.pid);
    w.str(p.name);
    w.u8(p.policy);
    put(w, p.as);
    w.i32(p.core);
    w.u32(p.sched_id);
    w.u32(p.sched_gen);
    w.pod(p.fault_stats);
    w.b(p.alive);
  }
  w.b(n.has_module);
  if (n.has_module) {
    put(w, n.module);
  }
  w.b(n.has_thp);
  if (n.has_thp) {
    put(w, n.thp);
  }
  w.b(n.has_smp);
  if (n.has_smp) {
    w.vec(n.smp.zone_lock_free_at);
    w.vec(n.smp.cpu_stall);
    w.u64(n.smp.mms.size());
    for (const SmpMmImage& m : n.smp.mms) {
      w.u32(m.pid);
      w.u64(m.writer_free_at);
      w.u64(m.readers_free_at);
      w.vec(m.pt_shard_free_at);
      w.u64(m.pending_shootdown_pages);
    }
    w.u64(n.smp.pcp.size());
    for (const std::vector<Addr>& list : n.smp.pcp) w.vec(list);
    w.pod(n.smp.stats);
  }
  w.u32(n.next_pid);
  w.u64(n.anon_lru.size());
  for (const PidAddr& pa : n.anon_lru) put(w, pa);
  w.u64(n.swapped_out_total);
}

NodeImage get_node(Reader& r) {
  NodeImage n;
  n.rng = get_rng(r);
  n.scheduler.threads.resize(r.count(17)); // core, weight, gen, live
  for (SchedulerThreadImage& t : n.scheduler.threads) {
    t.core = r.i32();
    t.weight = r.f64();
    t.gen = r.u32();
    t.live = r.b();
  }
  r.vec(n.scheduler.free_slots);
  n.scheduler.live_count = r.u64();
  r.vec(n.scheduler.pinned_weight);
  n.scheduler.unpinned_weight = r.f64();
  n.bw.entries.resize(r.count(16)); // consumer, zone, demand
  for (BandwidthEntryImage& e : n.bw.entries) {
    e.consumer = r.u32();
    e.zone = r.u32();
    e.demand = r.f64();
  }
  r.vec(n.bw.zone_demand);
  n.bw.capacity = r.f64();
  n.bw.next_id = r.u32();
  n.memory = get_memory(r);
  n.has_hugetlb = r.b();
  if (n.has_hugetlb) {
    n.hugetlb.pool.resize(r.count(12)); // head, count
    for (HugetlbZonePoolImage& zp : n.hugetlb.pool) {
      zp.head = r.u32();
      zp.count = r.u64();
    }
    r.vec(n.hugetlb.total);
    r.pod(n.hugetlb.stats);
  }
  n.processes.resize(r.count(64)); // fixed fields of a process and its mm
  for (ProcessImage& p : n.processes) {
    p.pid = r.u32();
    p.name = r.str();
    p.policy = r.u8();
    p.as = get_address_space(r);
    p.core = r.i32();
    p.sched_id = r.u32();
    p.sched_gen = r.u32();
    r.pod(p.fault_stats);
    p.alive = r.b();
  }
  n.has_module = r.b();
  if (n.has_module) {
    n.module = get_module(r);
  }
  n.has_thp = r.b();
  if (n.has_thp) {
    n.thp = get_thp(r);
  }
  n.has_smp = r.b();
  if (n.has_smp) {
    r.vec(n.smp.zone_lock_free_at);
    r.vec(n.smp.cpu_stall);
    n.smp.mms.resize(r.count(36)); // pid, two stamps, shard length, backlog
    for (SmpMmImage& m : n.smp.mms) {
      m.pid = r.u32();
      m.writer_free_at = r.u64();
      m.readers_free_at = r.u64();
      r.vec(m.pt_shard_free_at);
      m.pending_shootdown_pages = r.u64();
    }
    n.smp.pcp.resize(r.count(8)); // length of each list
    for (std::vector<Addr>& list : n.smp.pcp) r.vec(list);
    r.pod(n.smp.stats);
  }
  n.next_pid = r.u32();
  n.anon_lru.resize(r.count(12)); // pid, addr
  for (PidAddr& pa : n.anon_lru) pa = get_pid_addr(r);
  n.swapped_out_total = r.u64();
  return n;
}

void put(Writer& w, const BuildImage& b) {
  w.u32(b.node_index);
  put(w, b.rng);
  w.u64(b.jobs.size());
  for (const BuildJobImage& j : b.jobs) {
    w.u64(j.blocks.size());
    for (const BuildBlockImage& blk : j.blocks) {
      w.u32(blk.zone);
      w.u64(blk.addr);
      w.u32(blk.order);
    }
    w.u32(j.sched_id);
    w.u32(j.sched_gen);
    w.u32(j.bw_id);
    w.u32(j.home);
    w.u32(j.phase);
    w.b(j.live);
  }
  w.pod(b.stats);
  w.b(b.running);
}

BuildImage get_build(Reader& r) {
  BuildImage b;
  b.node_index = r.u32();
  b.rng = get_rng(r);
  b.jobs.resize(r.count(29)); // block length, five u32 fields, live
  for (BuildJobImage& j : b.jobs) {
    j.blocks.resize(r.count(16)); // zone, addr, order
    for (BuildBlockImage& blk : j.blocks) {
      blk.zone = r.u32();
      blk.addr = r.u64();
      blk.order = r.u32();
    }
    j.sched_id = r.u32();
    j.sched_gen = r.u32();
    j.bw_id = r.u32();
    j.home = r.u32();
    j.phase = r.u32();
    j.live = r.b();
  }
  r.pod(b.stats);
  b.running = r.b();
  return b;
}

void put(Writer& w, const trace::Event& e) {
  w.u64(e.ts);
  w.u64(e.dur);
  w.str(e.event_name != nullptr ? std::string(e.event_name) : std::string());
  w.u32(static_cast<std::uint32_t>(e.cat));
  w.u8(static_cast<std::uint8_t>(e.phase));
  w.u32(e.pid);
  w.i32(e.core);
  w.u32(e.span);
  w.u8(e.arg_count);
  for (const trace::Arg& a : e.args) {
    w.str(a.name != nullptr ? std::string(a.name) : std::string());
    w.u8(static_cast<std::uint8_t>(a.kind));
    switch (a.kind) {
      case trace::Arg::Kind::kNone:
        break;
      case trace::Arg::Kind::kU64:
        w.u64(a.value.u64);
        break;
      case trace::Arg::Kind::kF64:
        w.f64(a.value.f64);
        break;
      case trace::Arg::Kind::kStr:
        w.str(a.value.str != nullptr ? std::string(a.value.str) : std::string());
        break;
    }
  }
}

trace::Event get_event(Reader& r) {
  trace::Event e;
  e.ts = r.u64();
  e.dur = r.u64();
  e.event_name = intern(r.str());
  e.cat = static_cast<trace::Category>(r.u32());
  e.phase = static_cast<trace::Phase>(r.u8());
  e.pid = r.u32();
  e.core = r.i32();
  e.span = r.u32();
  e.arg_count = r.u8();
  for (trace::Arg& a : e.args) {
    a.name = intern(r.str());
    a.kind = static_cast<trace::Arg::Kind>(r.u8());
    switch (a.kind) {
      case trace::Arg::Kind::kNone:
        break;
      case trace::Arg::Kind::kU64:
        a.value.u64 = r.u64();
        break;
      case trace::Arg::Kind::kF64:
        a.value.f64 = r.f64();
        break;
      case trace::Arg::Kind::kStr:
        a.value.str = intern(r.str());
        break;
    }
  }
  return e;
}

void put(Writer& w, const P2QuantileImage& p) {
  w.f64(p.q);
  w.u64(p.n);
  w.array(p.heights);
  w.array(p.positions);
  w.array(p.desired);
  w.array(p.increments);
}

P2QuantileImage get_p2(Reader& r) {
  P2QuantileImage p;
  p.q = r.f64();
  p.n = r.u64();
  r.array(p.heights);
  r.array(p.positions);
  r.array(p.desired);
  r.array(p.increments);
  return p;
}

void put(Writer& w, const RunningStatsImage& s) {
  w.u64(s.n);
  w.f64(s.mean);
  w.f64(s.m2);
  w.f64(s.min);
  w.f64(s.max);
  w.f64(s.sum);
}

RunningStatsImage get_running_stats(Reader& r) {
  RunningStatsImage s;
  s.n = r.u64();
  s.mean = r.f64();
  s.m2 = r.f64();
  s.min = r.f64();
  s.max = r.f64();
  s.sum = r.f64();
  return s;
}

} // namespace

void save(const WorldImage& image, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  HPMMAP_ASSERT(out.good(), "snapshot: cannot open output file");
  Writer w(out);
  w.u32(kMagic);
  w.u32(kVersion);
  w.u64(image.fingerprint.size());
  for (const auto& [key, value] : image.fingerprint) {
    w.str(key);
    w.u64(value);
  }
  w.u64(image.engine.now);
  w.u64(image.engine.next_seq);
  w.u64(image.engine.fired);
  w.u64(image.engine.cancelled);
  w.b(image.engine.stopped);
  w.u64(image.nodes.size());
  for (const NodeImage& n : image.nodes) put(w, n);
  w.u64(image.builds.size());
  for (const BuildImage& b : image.builds) put(w, b);
  w.u64(image.events.size());
  for (const EventRecord& e : image.events) {
    w.u64(e.when);
    w.u64(e.seq);
    w.b(e.daemon);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u32(e.node_index);
    w.u32(e.build_index);
    w.u64(e.aux);
  }
  w.u64(image.trace.ring.size());
  for (const trace::Event& e : image.trace.ring) put(w, e);
  w.u64(image.trace.capacity);
  w.u64(image.trace.head);
  w.u64(image.trace.dropped);
  w.u64(image.trace.recorded);
  w.u64(image.metrics.counters.size());
  for (const auto& [name, value] : image.metrics.counters) {
    w.str(name);
    w.u64(value);
  }
  w.u64(image.metrics.histograms.size());
  for (const auto& [name, h] : image.metrics.histograms) {
    w.str(name);
    put(w, h.stats);
    put(w, h.p50);
    put(w, h.p95);
    put(w, h.p99);
  }
  w.pod(image.injector.plan);
  for (const verify::PointStats& s : image.injector.stats) {
    w.u64(s.calls);
    w.u64(s.fired);
  }
  put(w, image.injector.rng);
  w.b(image.injector.armed);
  w.flush();
  out.close();
  HPMMAP_ASSERT(out.good(), "snapshot: write failed");
}

WorldImage load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  HPMMAP_ASSERT(in.good(), "snapshot: cannot open image file");
  const std::streamsize size = in.tellg();
  HPMMAP_ASSERT(size >= 0, "snapshot: cannot size image file");
  in.seekg(0);
  auto data = std::make_unique_for_overwrite<char[]>(static_cast<std::size_t>(size));
  in.read(data.get(), size);
  HPMMAP_ASSERT(in.gcount() == size, "snapshot: short read of image file");
  Reader r(std::move(data), static_cast<std::size_t>(size));
  HPMMAP_ASSERT(r.u32() == kMagic, "snapshot: not a snapshot image");
  HPMMAP_ASSERT(r.u32() == kVersion, "snapshot: unsupported image version");

  WorldImage image;
  image.fingerprint.resize(r.count(16)); // key length, value
  for (auto& [key, value] : image.fingerprint) {
    key = r.str();
    value = r.u64();
  }
  image.engine.now = r.u64();
  image.engine.next_seq = r.u64();
  image.engine.fired = r.u64();
  image.engine.cancelled = r.u64();
  image.engine.stopped = r.b();
  image.nodes.resize(r.count(172)); // fixed fields of a node
  for (NodeImage& n : image.nodes) n = get_node(r);
  image.builds.resize(r.count(45)); // index, rng, job length, running
  for (BuildImage& b : image.builds) b = get_build(r);
  image.events.resize(r.count(34)); // when, seq, flags, owner, aux
  for (EventRecord& e : image.events) {
    e.when = r.u64();
    e.seq = r.u64();
    e.daemon = r.b();
    e.kind = static_cast<EventKind>(r.u8());
    e.node_index = r.u32();
    e.build_index = r.u32();
    e.aux = r.u64();
  }
  image.trace.ring.resize(r.count(78)); // fixed fields, four empty args
  for (trace::Event& e : image.trace.ring) e = get_event(r);
  image.trace.capacity = r.u64();
  image.trace.head = r.u64();
  image.trace.dropped = r.u64();
  image.trace.recorded = r.u64();
  image.metrics.counters.resize(r.count(16)); // name length, value
  for (auto& [name, value] : image.metrics.counters) {
    name = r.str();
    value = r.u64();
  }
  image.metrics.histograms.resize(r.count(584)); // name length, stats, three P2s
  for (auto& [name, h] : image.metrics.histograms) {
    name = r.str();
    h.stats = get_running_stats(r);
    h.p50 = get_p2(r);
    h.p95 = get_p2(r);
    h.p99 = get_p2(r);
  }
  r.pod(image.injector.plan);
  for (verify::PointStats& s : image.injector.stats) {
    s.calls = r.u64();
    s.fired = r.u64();
  }
  image.injector.rng = get_rng(r);
  image.injector.armed = r.b();
  HPMMAP_ASSERT(r.done(), "snapshot: trailing bytes in image file");
  return image;
}

} // namespace hpmmap::snapshot
