// One field list per harness result type, and the one comparison every
// determinism and pure-observer check makes: first_difference(a, b).
//
// A resumed run must equal the straight run, a sweep must not depend on
// --jobs, and an observer must not change what it observes. Each check
// compares every field of its results, so each result type names its
// fields once, in declaration order, in a `fields(ar, x)` list in the
// idiom of snapshot/serialize.cpp, and walks them with the same
// snapshot::Archive. A static_assert below fails to compile when a
// result type gains a member its list does not name.
//
// Only tests and benches include this header; the harness library
// itself never instantiates a comparison.
#pragma once

#include <cstddef>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "snapshot/archive.hpp"

namespace hpmmap::harness {

// --- field lists, each in declaration order ---------------------------------

template <class Ar>
constexpr void fields(Ar& ar, FaultKindSummary& s) {
  ar(s.total_faults, s.avg_cycles, s.stdev_cycles);
}

template <class Ar>
constexpr void fields(Ar& ar, introspect::TimePoint& p) {
  ar(p.ts, p.value);
}

template <class Ar>
constexpr void fields(Ar& ar, introspect::TimeSeries& s) {
  ar(s.metric, s.labels, s.type, s.points, s.ring_start, s.capacity, s.dropped);
}

template <class Ar>
constexpr void fields(Ar& ar, RunResult& r) {
  ar(r.runtime_seconds, r.clock_hz);
  ar.pod(r.faults);
  ar(r.events, r.trace_dropped, r.app_pids, r.trace_t0, r.thp_merges, r.hpmmap_spurious_faults,
     r.events_fired, r.injected, r.audit_checks, r.audit_violations, r.audit_report,
     r.thp_fault_fallbacks, r.thp_merges_aborted, r.hugetlb_pool_exhausted, r.telemetry,
     r.procfs_text, r.by_kind_summaries);
}

template <class Ar>
constexpr void fields(Ar& ar, SeriesPoint& p) {
  ar(p.mean_seconds, p.stdev_seconds, p.trials, p.events, p.fault_counts, p.fault_cycles);
}

template <class Ar>
constexpr void fields(Ar& ar, workloads::ServerStats& s) {
  ar(s.offered, s.admitted, s.shed_queue, s.shed_timeout, s.completed, s.cache_hits,
     s.cache_misses);
  ar.pod(s.slab);
}

template <class Ar>
constexpr void fields(Ar& ar, ServerTailSummary& t) {
  ar(t.p50_us, t.p95_us, t.p99_us, t.p999_us, t.exact_p50_us, t.exact_p99_us, t.exact_p999_us,
     t.mean_us, t.max_us, t.samples);
}

template <class Ar>
constexpr void fields(Ar& ar, SloOutcome& s) {
  ar(s.label, s.budget_us, s.violations);
}

/// Listed, not `pod`: the 4 bytes after `span` are padding.
template <class Ar>
constexpr void fields(Ar& ar, profile::RequestRecord& r) {
  ar(r.index, r.span, r.arrival, r.latency, r.queue, r.slab, r.fault, r.lock_mmap_sem, r.lock_pt,
     r.lock_zone, r.ipi_stall, r.miss_disk, r.compute, r.mem_stretch, r.sched_dilation);
}

template <class Ar>
constexpr void fields(Ar& ar, profile::TrialAttribution& t) {
  ar(t.requests, t.totals, t.completed, t.residual_errors);
}

template <class Ar>
constexpr void fields(Ar& ar, ServerRunResult& r) {
  ar(r.runtime_seconds, r.clock_hz, r.server, r.tail, r.slo, r.slo_total);
  ar.pod(r.faults);
  ar(r.events, r.trace_dropped, r.trace_t0, r.events_fired, r.injected, r.audit_checks,
     r.audit_violations, r.audit_report, r.telemetry, r.procfs_text, r.attribution);
}

template <class Ar>
constexpr void fields(Ar& ar, SmpRunResult& r) {
  ar(r.cores, r.pages_touched, r.seconds, r.faults_per_sec, r.clock_hz);
  ar.pod(r.smp);
  ar.pod(r.faults);
  ar(r.events_fired, r.events, r.trace_dropped, r.trace_t0, r.injected, r.audit_checks,
     r.audit_violations, r.audit_report);
}

// --- every member is listed --------------------------------------------------

/// Converts to any member type, so `T{AnyMember{}...}` probes how many
/// members brace-initialise T. A C-array member is counted per element
/// (brace elision), which is why mm::FaultStats is `pod` above.
struct AnyMember {
  template <class T>
  constexpr operator T() const noexcept;
};

template <class T, class... Probe>
consteval std::size_t member_count() {
  if constexpr (requires { T{Probe{}..., AnyMember{}}; }) {
    return member_count<T, Probe..., AnyMember>();
  } else {
    return sizeof...(Probe);
  }
}

/// Counts the entries a list names.
struct EntryCounter {
  std::size_t n = 0;
  template <class... Ts>
  constexpr void operator()(Ts&... /*xs*/) noexcept {
    n += sizeof...(Ts);
  }
  template <class T>
  constexpr void pod(T& /*x*/) noexcept {
    ++n;
  }
};

template <class T>
consteval std::size_t listed_count() {
  T x{};
  EntryCounter c;
  fields(c, x);
  return c.n;
}

template <class T>
constexpr bool kListsEveryMember = member_count<T>() == listed_count<T>();

static_assert(kListsEveryMember<FaultKindSummary>);
static_assert(kListsEveryMember<introspect::TimePoint>);
static_assert(kListsEveryMember<introspect::TimeSeries>);
static_assert(kListsEveryMember<RunResult>);
static_assert(kListsEveryMember<SeriesPoint>);
static_assert(kListsEveryMember<workloads::ServerStats>);
static_assert(kListsEveryMember<ServerTailSummary>);
static_assert(kListsEveryMember<SloOutcome>);
static_assert(kListsEveryMember<profile::RequestRecord>);
static_assert(kListsEveryMember<profile::TrialAttribution>);
static_assert(kListsEveryMember<ServerRunResult>);
static_assert(kListsEveryMember<SmpRunResult>);

// --- first_difference ----------------------------------------------------------

/// Encodes a value into memory through its field list. Given the encoding
/// of a reference value, it instead walks a second value against it and
/// keeps the path of the first leaf whose bytes differ, so doubles compare
/// bit for bit (-0.0 differs from 0.0).
class ResultEncoder : public snapshot::Archive<ResultEncoder> {
 public:
  static constexpr bool kLoads = false;

  explicit ResultEncoder(const std::string* reference = nullptr) : reference_(reference) {}

  template <class T>
  void walk(const T& x) {
    item(const_cast<T&>(x)); // the encoder only reads
  }

  /// Each member is one path step, numbered from 0 within its record.
  template <class... Ts>
  void operator()(Ts&... xs) {
    (step('#', [&] { item(xs); }), ...);
  }
  /// Equal values of T must have equal object bytes.
  template <class T>
  void pod(T& x) {
    static_assert(std::has_unique_object_representations_v<T>);
    step('#', [&] { Archive::pod(x); });
  }
  template <class T>
  void element(T& e) {
    step('[', [&] { item(e); });
  }

  void bytes(const void* p, std::size_t n) {
    if (reference_ == nullptr) {
      encoded.append(static_cast<const char*>(p), n);
    } else if (!differs_ && n != 0 &&
               (n > reference_->size() - pos_ ||
                std::memcmp(reference_->data() + pos_, p, n) != 0)) {
      differs_ = path_;
    }
    pos_ += n;
  }

  /// After walking against a reference: `root #member [element] ...` for
  /// the first differing leaf, or nullopt when the encodings match.
  [[nodiscard]] std::optional<std::string> difference(std::string root) const {
    if (!differs_ && pos_ == reference_->size()) {
      return std::nullopt;
    }
    for (const auto& [kind, index] : differs_.value_or(Path{})) {
      root += root.empty() ? "" : " ";
      root += kind == '#' ? "#" + std::to_string(index) : "[" + std::to_string(index) + "]";
    }
    return root;
  }

  std::string encoded;

 private:
  using Path = std::vector<std::pair<char, std::size_t>>; // ('#' member | '[' element, index)

  template <class F>
  void step(char kind, F&& walk) {
    const std::size_t index = next_;
    path_.emplace_back(kind, index);
    next_ = 0;
    walk();
    next_ = index + 1;
    path_.pop_back();
  }

  const std::string* reference_;
  std::size_t pos_ = 0;
  Path path_;
  std::size_t next_ = 0;
  std::optional<Path> differs_;
};

/// The root of a difference path: a result type's name, or a vector of one.
template <class T>
std::string result_name(std::type_identity<T> /*unnamed*/) {
  return {};
}
inline std::string result_name(std::type_identity<RunResult>) { return "RunResult"; }
inline std::string result_name(std::type_identity<SeriesPoint>) { return "SeriesPoint"; }
inline std::string result_name(std::type_identity<ServerRunResult>) { return "ServerRunResult"; }
inline std::string result_name(std::type_identity<SmpRunResult>) { return "SmpRunResult"; }
template <class T>
std::string result_name(std::type_identity<std::vector<T>> /*list*/) {
  return "vector<" + result_name(std::type_identity<T>{}) + ">";
}

/// nullopt when `a` and `b` are equal in every listed field, bit for bit;
/// otherwise the path of the first field that differs, e.g.
/// `ServerRunResult #17 #0 [41] #6` for attribution.requests[41].fault.
template <class T>
[[nodiscard]] std::optional<std::string> first_difference(const T& a, const T& b) {
  ResultEncoder reference;
  reference.walk(a);
  ResultEncoder other(&reference.encoded);
  other.walk(b);
  return other.difference(result_name(std::type_identity<T>{}));
}

} // namespace hpmmap::harness
