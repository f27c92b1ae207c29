// Kernel-style tracepoints and a flight recorder for the simulated
// memory-management stack.
//
// The paper argues from *per-event* evidence (Figures 2-5 are per-fault
// cost breakdowns and scatter plots); this subsystem is the single
// mechanistic event stream those figures — and any future profiling —
// are derived from. The design follows the kernel's tracepoint +
// static_key idiom:
//
//   - call sites are guarded by `trace::on(Category)`, one relaxed load
//     and a predictable branch when tracing is off (plus a compile-time
//     kill switch, HPMMAP_TRACE_OFF, that folds every site to nothing);
//   - enabled events land in a bounded ring buffer (flight recorder):
//     overwrite-oldest with a drop counter, never unbounded growth;
//   - timestamps are virtual cycles read through a clock hook the
//     simulation engine registers, so producers (buddy allocator,
//     hugetlb pool, scheduler) need no engine reference.
//
// Exporters (Chrome trace-event JSON for Perfetto/chrome://tracing, and
// CSV) live in trace/export.hpp; counters/histograms in trace/metrics.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::trace {

/// Per-subsystem enable bits. Kept in one 32-bit mask so the hot-path
/// check is a single AND.
enum class Category : std::uint32_t {
  kFault   = 1u << 0, // demand-paging fault handler spans
  kBuddy   = 1u << 1, // buddy split/merge, reclaim, compaction, swap
  kThp     = 1u << 2, // khugepaged scans and merges
  kHugetlb = 1u << 3, // hugetlbfs pool events
  kModule  = 1u << 4, // HPMMAP module lifecycle and backing
  kSched   = 1u << 5, // scheduler thread add/remove/weight
  kNet     = 1u << 6, // cluster interconnect barriers
  kApp     = 1u << 7, // workload rank lifecycle
  kHarness = 1u << 8, // experiment bracketing
  kVerify  = 1u << 9, // invariant audits and fault injection
  kServer  = 1u << 10, // serving: request lifecycle, admission, shedding
  kLock    = 1u << 11, // SMP lock waits: mmap_sem, PT shards, zone locks, IPIs
};

inline constexpr std::uint32_t kAllCategories = 0xfff;

[[nodiscard]] constexpr std::string_view name(Category c) noexcept {
  switch (c) {
    case Category::kFault:   return "fault";
    case Category::kBuddy:   return "buddy";
    case Category::kThp:     return "thp";
    case Category::kHugetlb: return "hugetlb";
    case Category::kModule:  return "module";
    case Category::kSched:   return "sched";
    case Category::kNet:     return "net";
    case Category::kApp:     return "app";
    case Category::kHarness: return "harness";
    case Category::kVerify:  return "verify";
    case Category::kServer:  return "server";
    case Category::kLock:    return "lock";
  }
  return "?";
}

/// Parse "fault,buddy,thp" / "all" / "none" into a category mask.
/// nullopt on an unknown category name.
[[nodiscard]] std::optional<std::uint32_t> parse_categories(std::string_view csv);

/// One typed event argument. Names and string values must be string
/// literals (or otherwise outlive the recorder) — the kernel tracepoint
/// contract; events never own heap memory.
struct Arg {
  enum class Kind : std::uint8_t { kNone, kU64, kF64, kStr };

  const char* name = nullptr;
  Kind kind = Kind::kNone;
  union Value {
    std::uint64_t u64;
    double f64;
    const char* str;
  } value{};

  [[nodiscard]] static constexpr Arg u64(const char* n, std::uint64_t v) noexcept {
    Arg a;
    a.name = n;
    a.kind = Kind::kU64;
    a.value.u64 = v;
    return a;
  }
  [[nodiscard]] static constexpr Arg f64(const char* n, double v) noexcept {
    Arg a;
    a.name = n;
    a.kind = Kind::kF64;
    a.value.f64 = v;
    return a;
  }
  [[nodiscard]] static constexpr Arg str(const char* n, const char* v) noexcept {
    Arg a;
    a.name = n;
    a.kind = Kind::kStr;
    a.value.str = v;
    return a;
  }
};

/// Chrome trace-event phases we emit. kComplete carries a duration;
/// kInstant and kCounter are points in time.
enum class Phase : char { kComplete = 'X', kInstant = 'i', kCounter = 'C' };

/// A single trace event. Fixed size, trivially copyable; `name` must be
/// a string literal.
struct Event {
  static constexpr std::size_t kMaxArgs = 4;

  Cycles ts = 0;   // virtual-cycle timestamp
  Cycles dur = 0;  // kComplete only
  const char* event_name = nullptr;
  Category cat = Category::kHarness;
  Phase phase = Phase::kInstant;
  Pid pid = 0;            // owning process, 0 = kernel/daemon context
  std::int32_t core = -1; // per-core track; -1 = unpinned/unknown
  /// Causal span: id of the request/actor on whose behalf this event
  /// happened, stamped ambiently by emit() from the active SpanScope.
  /// 0 = no span (exporters omit the field, keeping spans-off output
  /// byte-identical to pre-span builds).
  std::uint32_t span = 0;
  std::uint8_t arg_count = 0;
  std::array<Arg, kMaxArgs> args{};

  [[nodiscard]] std::string_view name() const noexcept {
    return event_name != nullptr ? std::string_view{event_name} : std::string_view{};
  }
};

/// Bounded ring buffer of events: overwrite-oldest with a drop counter.
/// Storage grows lazily up to `capacity` so an idle recorder costs
/// nothing.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Change capacity; clears the buffer and counters.
  void set_capacity(std::size_t capacity);
  void clear() noexcept;

  void push(const Event& e);

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Events ever pushed (retained + dropped).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }

  /// Retained events, oldest first (push order).
  [[nodiscard]] std::vector<Event> snapshot() const;

 private:
  friend struct hpmmap::snapshot::Access;

  std::vector<Event> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0; // next overwrite position once full
  std::uint64_t dropped_ = 0;
  std::uint64_t recorded_ = 0;
};

namespace detail {
/// Per-thread category mask, read inline on every tracepoint. Thread-
/// local because the whole trace registry is a *per-run context*: the
/// batch runner executes independent simulations on worker threads, and
/// each run binds the recorder/metrics/clock of the thread it runs on
/// (see DESIGN.md §8). Single-threaded use is unchanged.
extern thread_local std::uint32_t g_enabled_mask;
/// Span tracking, same per-run thread_local discipline. g_current_span
/// is the id stamped on every emitted event while a SpanScope is live;
/// g_spans_enabled gates stamping so span tracing off means every event
/// carries span 0 and exporter output is byte-identical.
extern thread_local std::uint32_t g_current_span;
extern thread_local bool g_spans_enabled;
} // namespace detail

/// The tracepoint guard: one load + AND. Callers wrap argument
/// construction in `if (trace::on(cat))` so disabled tracepoints cost a
/// predictable not-taken branch.
[[nodiscard]] inline bool on(Category c) noexcept {
#ifdef HPMMAP_TRACE_OFF
  (void)c;
  return false;
#else
  return (detail::g_enabled_mask & static_cast<std::uint32_t>(c)) != 0;
#endif
}

/// Enable exactly the categories in `mask` (0 disables everything).
void enable(std::uint32_t mask) noexcept;
void disable_all() noexcept;

/// Enable/disable causal span stamping for this run context. Off (the
/// default) every event carries span 0, which exporters render exactly
/// as before spans existed — the pure-observer contract (DESIGN.md §15).
void enable_spans(bool on) noexcept;

/// RAII causal-span context. The serving layer opens one per request
/// callback (span = request index + 1), SmpStorm one per fault actor, so
/// every tracepoint fired underneath — fault handler, SmpDomain lock
/// waits, pcp refills, shootdown IPI rounds — is attributed to the
/// request/actor that suffered it. Nests: the inner scope wins, the
/// outer is restored on destruction. A no-op while spans are disabled.
class SpanScope {
 public:
  explicit SpanScope(std::uint32_t span) noexcept : prev_(detail::g_current_span) {
    if (detail::g_spans_enabled) {
      detail::g_current_span = span;
    }
  }
  ~SpanScope() { detail::g_current_span = prev_; }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::uint32_t prev_;
};

/// This thread's flight recorder (one per run context; the harness
/// brackets each run, so a worker thread's recorder holds exactly the
/// events of the run executing on it).
[[nodiscard]] FlightRecorder& recorder() noexcept;

/// Point this thread's recorder() at an external ring instead of the
/// thread's own. The PDES cluster harness keeps one recorder per node
/// engine and installs it around each engine's execution slice, so a
/// group's events land in the same ring no matter which worker thread
/// runs the slice. nullptr restores the thread's own recorder.
void set_recorder_override(FlightRecorder* r) noexcept;

/// Virtual clock hook, one registration per thread. The simulation
/// engine registers itself at construction; producers without an engine
/// reference (buddy, pools, scheduler) stamp events through this.
/// Returns 0 with no clock. Two engines on different threads never see
/// each other's registration.
using ClockFn = Cycles (*)(const void* ctx);
void set_clock(ClockFn fn, const void* ctx) noexcept;
/// Unregister, but only if `ctx` is still the active clock (a dying
/// engine must not yank a successor's registration).
void clear_clock(const void* ctx) noexcept;
[[nodiscard]] Cycles clock_now() noexcept;

// --- emission helpers -----------------------------------------------------
// All re-check `on(cat)` so an unguarded call while disabled is a no-op;
// hot paths still guard explicitly to skip argument setup.

void emit(const Event& e);
void complete(Category cat, const char* event_name, Cycles ts, Cycles dur, Pid pid,
              std::int32_t core, std::initializer_list<Arg> args = {});
/// Instant at the current virtual time.
void instant(Category cat, const char* event_name, Pid pid, std::int32_t core,
             std::initializer_list<Arg> args = {});
/// Counter sample at the current virtual time.
void counter(Category cat, const char* event_name, double value, Pid pid = 0);

} // namespace hpmmap::trace
