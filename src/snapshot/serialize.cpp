// Binary save/load for WorldImage (--snapshot-out / --snapshot-in).
//
// Each image type has one field list, `fields(ar, x)`, naming its fields
// once in file order; snapshot/archive.hpp holds the walker that reads
// them and says how each type is encoded, together with the lists the
// harness's result comparison shares (trace events and arguments,
// injector counters, std::pair). Three archives walk the lists: Writer
// saves, Reader loads, and Sizer writes nothing and counts bytes —
// walked over a value-initialised record it gives the fewest bytes that
// record encodes to, which is how the loader bounds a record count
// (DESIGN.md §12.6). Raw runs and `ar.pod(x)` stats structs are a
// same-architecture contract — a snapshot file is a local artifact for
// resuming sweeps, not an interchange format or an archive; the
// static_assert below pins the byte order and the version word refuses
// images from older builds. save() streams to the file through a small
// staging buffer; load() reads the file in one sized read and checks
// every length word against the bytes that remain before allocating for
// it. No record names another by index: a pending engine event is an
// EventImage inside its owner's record. Trace strings are interned into
// a process-lifetime pool on load, preserving the recorder's "names
// outlive the recorder" contract.

#include "snapshot/snapshot.hpp"

#include <bit>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>

#include "common/assert.hpp"
#include "snapshot/archive.hpp"

namespace hpmmap::snapshot {
namespace {

static_assert(std::endian::native == std::endian::little,
              "snapshot images store numbers as raw little-endian bytes");

constexpr std::uint32_t kMagic = 0x4e535048; // "HPSN"
// v3: trace::Event carries a causal span id. v4: the mem_map link table
// is laid out by Fibonacci hashing. v5: no link table; the page-cache LRU
// and the hugetlb pools are stored as arrays of frame indices. v6: the
// anon LRU is stored as (pid, first, pages) runs, and a Kitten heap's
// mem_map holds one meta byte per 2 MiB block. v7: no fingerprint and no
// event list; each owner's image holds its pending events and a node its
// clock.
constexpr std::uint32_t kVersion = 7;

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

template <typename T>
std::size_t min_bytes();

/// Streams the encoding to the file: small fields gather in a fixed
/// staging buffer, and a run too large for it is written straight out.
class Writer : public Archive<Writer> {
 public:
  static constexpr bool kLoads = false;

  explicit Writer(std::ofstream& out) : out_(out) {}

  void bytes(const void* p, std::size_t n) {
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
  void flush() {
    out_.write(stage_.get(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  static constexpr std::size_t kStageBytes = 64 * 1024;

  std::ofstream& out_;
  std::unique_ptr<char[]> stage_ = std::make_unique_for_overwrite<char[]>(kStageBytes);
  std::size_t used_ = 0;
};

/// Decodes an image held whole in memory. Every read is bounds-checked,
/// and every length word is checked against the bytes that remain
/// before anything is sized from it, so a corrupt or cut-off file fails
/// with the loader's message instead of a wild allocation.
class Reader : public Archive<Reader> {
 public:
  static constexpr bool kLoads = true;

  Reader(std::unique_ptr<char[]> data, std::size_t size)
      : buf_(std::move(data)), size_(size) {}

  void bytes(void* p, std::size_t n) {
    HPMMAP_ASSERT(n <= size_ - pos_, "snapshot: truncated image file");
    if (n != 0) {
      std::memcpy(p, buf_.get() + pos_, n);
    }
    pos_ += n;
  }
  /// More elements than the remaining bytes can hold is a cut-off file.
  template <class E>
  void length(std::size_t& n) {
    std::uint64_t v = 0;
    bytes(&v, sizeof v);
    HPMMAP_ASSERT(v <= (size_ - pos_) / min_bytes<E>(), "snapshot: truncated image file");
    n = static_cast<std::size_t>(v);
  }
  void cstr(const char*& s) {
    std::string str;
    (*this)(str);
    s = intern(str);
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == size_; }

 private:
  std::unique_ptr<char[]> buf_;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

/// Writes nothing and counts the bytes a value encodes to.
class Sizer : public Archive<Sizer> {
 public:
  static constexpr bool kLoads = false;

  void bytes(const void* /*p*/, std::size_t n) { total_ += n; }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

 private:
  std::size_t total_ = 0;
};

/// The fewest bytes one T encodes to: its value-initialised encoding,
/// where every list and string is empty, every has_* flag off and every
/// trace argument kNone.
template <typename T>
std::size_t min_bytes() {
  static const std::size_t n = [] {
    T x{};
    Sizer s;
    s(x);
    return s.total();
  }();
  return n;
}

// --- field lists, each in file order ----------------------------------------

template <class Ar>
void fields(Ar& ar, Range& r) {
  ar.pod(r);
}

// A VMA record keeps the object's old 32-byte layout, but field by field:
// the padding byte after `locked` is indeterminate in a live VMA, so a
// zero is written in its place and the loaded byte is dropped.
static_assert(sizeof(mm::Vma) == 32 && offsetof(mm::Vma, prot) == 16 &&
                  offsetof(mm::Vma, kind) == 20 && offsetof(mm::Vma, thp_eligible) == 21 &&
                  offsetof(mm::Vma, locked) == 22 && offsetof(mm::Vma, hugetlb_size) == 24,
              "the v4 VMA record mirrors the mm::Vma layout");

template <class Ar>
void fields(Ar& ar, mm::Vma& v) {
  std::uint8_t pad = 0;
  ar(v.range, v.prot, v.kind, v.thp_eligible, v.locked, pad, v.hugetlb_size);
}

template <class Ar>
void fields(Ar& ar, PidAddr& pa) {
  ar(pa.pid, pa.addr);
}

template <class Ar>
void fields(Ar& ar, AnonRunImage& r) {
  ar(r.pid, r.first, r.pages);
}

template <class Ar>
void fields(Ar& ar, EventImage& e) {
  ar(e.when, e.seq, e.daemon);
}

// hw / linux_mm

template <class Ar>
void fields(Ar& ar, MemMapImage& m) {
  ar(m.range, m.meta);
}

template <class Ar>
void fields(Ar& ar, OrderListImage& l) {
  ar(l.bits, l.summary, l.count, l.scan_hint);
}

template <class Ar>
void fields(Ar& ar, CorruptBlockImage& c) {
  ar(c.addr, c.order);
}

template <class Ar>
void fields(Ar& ar, BuddyImage& b) {
  ar(b.range, b.max_order, b.free_bytes, b.lists, b.map, b.corrupt_blocks);
  ar.pod(b.stats);
}

template <class Ar>
void fields(Ar& ar, CacheImage& c) {
  ar(c.lru, c.cached_bytes, c.free_floor, c.dirty_fraction, c.grow_count);
}

template <class Ar>
void fields(Ar& ar, ZoneImage& z) {
  ar(z.buddy, z.cache, z.online_bytes, z.compact_cursor, z.compact_defer);
}

template <class Ar>
void fields(Ar& ar, MemoryImage& m) {
  ar(m.rng, m.zones);
}

template <class Ar>
void fields(Ar& ar, PageTableImage& pt) {
  ar(pt.slots, pt.used, pt.free_nodes);
  ar.pod(pt.mix);
  ar(pt.table_pages);
}

template <class Ar>
void fields(Ar& ar, AddressSpaceImage& a) {
  ar(a.pid, a.vmas, a.pt, a.heap_base, a.heap_end, a.locked_until, a.swapped, a.zone_policy,
     a.home_zone, a.zone_count);
}

template <class Ar>
void fields(Ar& ar, ThpCollapseImage& c) {
  ar(c.token, c.pid, c.region, c.mapped_small, c.event);
}

template <class Ar>
void fields(Ar& ar, ThpMergeImage& m) {
  ar(m.token, m.pid, m.region, m.huge_phys, m.event);
}

template <class Ar>
void fields(Ar& ar, ThpImage& t) {
  ar(t.processes, t.enter_queue, t.inflight, t.scan_rr, t.scan_cursor, t.scan_period,
     t.last_scan, t.running, t.pending_scan, t.wake_pending, t.pending_collapses,
     t.pending_merges, t.next_token);
  ar.pod(t.stats);
}

template <class Ar>
void fields(Ar& ar, HugetlbZonePoolImage& zp) {
  ar(zp.stack, zp.count);
}

template <class Ar>
void fields(Ar& ar, HugetlbImage& h) {
  ar(h.pool, h.total);
  ar.pod(h.stats);
}

template <class Ar>
void fields(Ar& ar, SmpMmImage& m) {
  ar(m.pid, m.writer_free_at, m.readers_free_at, m.pt_shard_free_at, m.pending_shootdown_pages);
}

template <class Ar>
void fields(Ar& ar, SmpImage& s) {
  ar(s.zone_lock_free_at, s.cpu_stall, s.mms, s.pcp);
  ar.pod(s.stats);
}

// core (the HPMMAP module)

template <class Ar>
void fields(Ar& ar, RegistrySlotImage& s) {
  ar(s.state, s.pid, s.context);
}

template <class Ar>
void fields(Ar& ar, ModuleContextImage& c) {
  ar(c.pid, c.vmas, c.mmap_cursor, c.heap_base, c.heap_break, c.live);
}

template <class Ar>
void fields(Ar& ar, ModuleImage& m) {
  ar(m.rng, m.offlined, m.kitten_zones);
  ar.pod(m.kitten_stats);
  ar(m.registry_slots, m.registry_size, m.registry_tombstones, m.contexts);
  ar.pod(m.stats);
}

// os

template <class Ar>
void fields(Ar& ar, SchedulerThreadImage& t) {
  ar(t.core, t.weight, t.gen, t.live);
}

template <class Ar>
void fields(Ar& ar, SchedulerImage& s) {
  ar(s.threads, s.free_slots, s.live_count, s.pinned_weight, s.unpinned_weight);
}

template <class Ar>
void fields(Ar& ar, BandwidthEntryImage& e) {
  ar(e.consumer, e.zone, e.demand);
}

template <class Ar>
void fields(Ar& ar, BandwidthImage& b) {
  ar(b.entries, b.zone_demand, b.capacity, b.next_id);
}

template <class Ar>
void fields(Ar& ar, ProcessImage& p) {
  ar(p.pid, p.name, p.policy, p.as, p.core, p.sched_id, p.sched_gen);
  ar.pod(p.fault_stats);
  ar(p.alive);
}

/// The flag is read before its branch, so one list serves both ways.
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

// workloads

template <class Ar>
void fields(Ar& ar, BuildBlockImage& b) {
  ar(b.zone, b.addr, b.order);
}

template <class Ar>
void fields(Ar& ar, BuildJobImage& j) {
  ar(j.blocks, j.sched_id, j.sched_gen, j.bw_id, j.home, j.phase, j.live, j.pending);
}

template <class Ar>
void fields(Ar& ar, BuildImage& b) {
  ar(b.node_index, b.rng, b.jobs);
  ar.pod(b.stats);
  ar(b.running);
}

// engine and per-run context

template <class Ar>
void fields(Ar& ar, EngineImage& e) {
  ar(e.now, e.next_seq, e.fired, e.cancelled, e.stopped);
}

template <class Ar>
void fields(Ar& ar, TraceImage& t) {
  ar(t.ring, t.capacity, t.head, t.dropped, t.recorded);
}

template <class Ar>
void fields(Ar& ar, RunningStatsImage& s) {
  ar(s.n, s.mean, s.m2, s.min, s.max, s.sum);
}

template <class Ar>
void fields(Ar& ar, P2QuantileImage& p) {
  ar(p.q, p.n, p.heights, p.positions, p.desired, p.increments);
}

template <class Ar>
void fields(Ar& ar, HistogramImage& h) {
  ar(h.stats, h.p50, h.p95, h.p99);
}

template <class Ar>
void fields(Ar& ar, MetricsImage& m) {
  ar(m.counters, m.histograms);
}

template <class Ar>
void fields(Ar& ar, InjectorImage& i) {
  ar.pod(i.plan);
  ar(i.stats, i.rng, i.armed);
}

/// Everything after the magic and version words.
template <class Ar>
void fields(Ar& ar, WorldImage& w) {
  ar(w.engine, w.nodes, w.builds, w.trace, w.metrics, w.injector);
}

} // namespace

void save(const WorldImage& image, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  HPMMAP_ASSERT(out.good(), "snapshot: cannot open output file");
  Writer w(out);
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  w(magic, version, const_cast<WorldImage&>(image)); // the writer only reads
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
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  r(magic);
  HPMMAP_ASSERT(magic == kMagic, "snapshot: not a snapshot image");
  r(version);
  HPMMAP_ASSERT(version == kVersion, "snapshot: unsupported image version");
  WorldImage image;
  r(image);
  HPMMAP_ASSERT(r.done(), "snapshot: trailing bytes in image file");
  return image;
}

} // namespace hpmmap::snapshot
