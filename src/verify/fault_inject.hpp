// Deterministic fault injection for the memory-management stack.
//
// The paper's overheads live on the *error paths* — reclaim entered
// because a buddy allocation failed, THP falling back to 4K, khugepaged
// aborting a merge, a hugetlb pool running dry — yet ordinary runs only
// exercise those paths when organic pressure happens to produce them.
// The injector forces them on demand: named injection points throughout
// linux_mm and cluster ask `injector().should_fail(point)` at the top of
// the operation (before any state mutation, so an audit may run at the
// exact fire instant), and a per-point plan decides deterministically —
// by call index or by seeded coin — whether this call fails.
//
// Design mirrors the kernel's CONFIG_FAULT_INJECTION + the trace
// registry's per-run-context idiom: one injector per thread, disarmed
// by default (boot paths that HPMMAP_ASSERT on success never see it);
// the harness arms it after node construction and disarms at collect,
// and concurrent batch runs on worker threads never share a plan.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "common/rng.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::verify {

/// Every named injection point in the tree. The registration site is
/// listed with each point; all sites fail *before* mutating any state.
enum class InjectPoint : std::uint8_t {
  kBuddyAlloc,    // MemorySystem::alloc_pages: fast path refused -> slow path/ENOMEM
  kDirectReclaim, // MemorySystem::alloc_pages: direct reclaim yields zero frames
  kThpHugeAlloc,  // ThpService::try_fault_huge: order-9 alloc fails -> 4K fallback
  kThpMergeAbort, // ThpService::perform_merge: khugepaged abandons the candidate
  kHugetlbAlloc,  // HugetlbPool::alloc_page: pool behaves as exhausted
  kNetDelay,      // cluster::ethernet_comm: collective hit by a delay spike
};

inline constexpr std::size_t kInjectPointCount = 6;

[[nodiscard]] constexpr std::string_view name(InjectPoint p) noexcept {
  switch (p) {
    case InjectPoint::kBuddyAlloc:    return "buddy_alloc";
    case InjectPoint::kDirectReclaim: return "direct_reclaim";
    case InjectPoint::kThpHugeAlloc:  return "thp_huge_alloc";
    case InjectPoint::kThpMergeAbort: return "thp_merge_abort";
    case InjectPoint::kHugetlbAlloc:  return "hugetlb_alloc";
    case InjectPoint::kNetDelay:      return "net_delay";
  }
  return "?";
}

[[nodiscard]] std::optional<InjectPoint> point_from_name(std::string_view s) noexcept;

/// Schedule for one injection point. Two mutually exclusive modes:
///  - deterministic (`first` > 0): fire at the `first`-th call since
///    arming (1-based), then every `period` calls, up to `count` fires;
///  - probabilistic (`first` == 0, `probability` > 0): every call fires
///    with `probability`, drawn from the injector's own seeded stream
///    (never perturbing the simulation's randomness), up to `count`.
struct PointPlan {
  std::uint64_t first = 0;
  std::uint64_t period = 0; // 0 = fire once at `first`, no repeats
  std::uint64_t count = 1;  // max fires
  double probability = 0.0;
  /// kNetDelay only: the delay multiplier applied when the point fires.
  double magnitude = 8.0;

  [[nodiscard]] bool enabled() const noexcept { return first > 0 || probability > 0.0; }
};

struct InjectionPlan {
  std::array<PointPlan, kInjectPointCount> points{};

  [[nodiscard]] PointPlan& operator[](InjectPoint p) noexcept {
    return points[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const PointPlan& operator[](InjectPoint p) const noexcept {
    return points[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] bool any() const noexcept {
    for (const PointPlan& p : points) {
      if (p.enabled()) {
        return true;
      }
    }
    return false;
  }
};

/// Per-point outcome counters, snapshot into RunResult by the harness.
struct PointStats {
  std::uint64_t calls = 0; // should_fail() invocations while armed
  std::uint64_t fired = 0; // injected failures
};

class FaultInjector {
 public:
  /// Arm with a plan; resets all counters. `seed` feeds the injector's
  /// private RNG stream for probabilistic points.
  void arm(const InjectionPlan& plan, std::uint64_t seed);
  /// Disarm; counters and the plan stay readable until the next arm().
  void disarm() noexcept { state_.armed = false; }
  [[nodiscard]] bool armed() const noexcept { return state_.armed; }

  /// The injection point: counts the call and returns true when the plan
  /// schedules a failure here. The disarmed fast path is one branch.
  [[nodiscard]] bool should_fail(InjectPoint p) {
    if (!state_.armed) {
      return false;
    }
    return roll(p);
  }

  /// Plan magnitude for `p` (the kNetDelay multiplier).
  [[nodiscard]] double magnitude(InjectPoint p) const noexcept {
    return state_.plan[p].magnitude;
  }

  [[nodiscard]] const PointStats& stats(InjectPoint p) const noexcept {
    return state_.stats[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const std::array<PointStats, kInjectPointCount>& all_stats() const noexcept {
    return state_.stats;
  }
  [[nodiscard]] std::uint64_t total_fired() const noexcept;

  /// Debug hook: invoked on every fire, after counting, with consistent
  /// mm state (all points fail pre-mutation). The harness's
  /// audit-on-injection mode runs the auditor from here.
  void set_on_fire(std::function<void(InjectPoint)> cb) { on_fire_ = std::move(cb); }

  /// Everything but the hook, which a snapshot leaves alone
  /// (snapshot/image.hpp).
  struct State {
    InjectionPlan plan{};
    std::array<PointStats, kInjectPointCount> stats{};
    Rng rng{0};
    bool armed = false;
  };

 private:
  friend struct hpmmap::snapshot::Access;

  [[nodiscard]] bool roll(InjectPoint p);

  State state_;
  std::function<void(InjectPoint)> on_fire_;
};

/// This thread's injector (the metrics()/recorder() per-run-context
/// idiom): call sites in linux_mm/cluster need no plumbing, boot-time
/// construction runs against a disarmed instance, and batch-runner
/// worker threads each arm their own run's injector independently.
[[nodiscard]] FaultInjector& injector() noexcept;

/// Redirect this thread's injector() to an external instance (per-node
/// cluster contexts; see trace::set_recorder_override). nullptr restores
/// the thread's own injector.
void set_injector_override(FaultInjector* f) noexcept;

/// Parse a --inject plan: comma-separated entries, each a point name
/// with modifiers in any order:
///   @N  first fire at the Nth call (default 1 if no ~)
///   +P  repeat every P calls after `first` (unlimited unless xC given)
///   xC  at most C fires
///   ~F  probabilistic mode with probability F per call
///   *M  magnitude (net_delay multiplier)
/// e.g. "thp_huge_alloc@100+50x20,net_delay~0.02*16". nullopt on error.
[[nodiscard]] std::optional<InjectionPlan> parse_inject_spec(std::string_view spec);

} // namespace hpmmap::verify
