#include "verify/fault_inject.hpp"

#include <cstdlib>
#include <string>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace hpmmap::verify {
namespace {

/// Stable metric names ("inject.<point>.fired"); must be literals for
/// the registry's lifetime rules.
const char* fired_counter_name(InjectPoint p) noexcept {
  switch (p) {
    case InjectPoint::kBuddyAlloc:    return "inject.buddy_alloc.fired";
    case InjectPoint::kDirectReclaim: return "inject.direct_reclaim.fired";
    case InjectPoint::kThpHugeAlloc:  return "inject.thp_huge_alloc.fired";
    case InjectPoint::kThpMergeAbort: return "inject.thp_merge_abort.fired";
    case InjectPoint::kHugetlbAlloc:  return "inject.hugetlb_alloc.fired";
    case InjectPoint::kNetDelay:      return "inject.net_delay.fired";
  }
  return "inject.unknown.fired";
}

} // namespace

std::optional<InjectPoint> point_from_name(std::string_view s) noexcept {
  for (std::size_t i = 0; i < kInjectPointCount; ++i) {
    const auto p = static_cast<InjectPoint>(i);
    if (s == name(p)) {
      return p;
    }
  }
  return std::nullopt;
}

void FaultInjector::arm(const InjectionPlan& plan, std::uint64_t seed) {
  state_.plan = plan;
  state_.stats = {};
  state_.rng = Rng(seed).fork("fault_inject");
  state_.armed = true;
}

std::uint64_t FaultInjector::total_fired() const noexcept {
  std::uint64_t total = 0;
  for (const PointStats& s : state_.stats) {
    total += s.fired;
  }
  return total;
}

bool FaultInjector::roll(InjectPoint p) {
  const PointPlan& plan = state_.plan[p];
  PointStats& st = state_.stats[static_cast<std::size_t>(p)];
  ++st.calls;
  if (!plan.enabled() || st.fired >= plan.count) {
    return false;
  }
  bool hit = false;
  if (plan.first > 0) {
    if (st.calls == plan.first) {
      hit = true;
    } else if (st.calls > plan.first && plan.period > 0) {
      hit = (st.calls - plan.first) % plan.period == 0;
    }
  } else {
    hit = state_.rng.chance(plan.probability);
  }
  if (!hit) {
    return false;
  }
  ++st.fired;
  ++trace::metrics().counter(fired_counter_name(p));
  if (trace::on(trace::Category::kVerify)) {
    trace::instant(trace::Category::kVerify, "inject.fire", 0, -1,
                   {trace::Arg::str("point", name(p).data()),
                    trace::Arg::u64("call", st.calls),
                    trace::Arg::u64("fired", st.fired)});
  }
  if (on_fire_) {
    on_fire_(p);
  }
  return true;
}

namespace {
thread_local FaultInjector* g_injector_override = nullptr;
} // namespace

FaultInjector& injector() noexcept {
  static thread_local FaultInjector instance;
  return g_injector_override != nullptr ? *g_injector_override : instance;
}

void set_injector_override(FaultInjector* f) noexcept { g_injector_override = f; }

std::optional<InjectionPlan> parse_inject_spec(std::string_view spec) {
  InjectionPlan plan;
  if (spec.empty()) {
    return std::nullopt; // an explicitly empty plan is a mistake, not a no-op
  }
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    std::string_view entry = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view{} : spec.substr(comma + 1);
    if (entry.empty()) {
      continue;
    }
    const std::size_t mod = entry.find_first_of("@+x~*");
    const std::string_view point_name = entry.substr(0, mod);
    const auto point = point_from_name(point_name);
    if (!point.has_value()) {
      return std::nullopt;
    }
    PointPlan& pp = plan[*point];
    pp.first = 1; // deterministic single-shot unless modifiers say otherwise
    bool explicit_count = false;
    std::string_view rest = mod == std::string_view::npos ? std::string_view{} : entry.substr(mod);
    while (!rest.empty()) {
      const char op = rest.front();
      rest.remove_prefix(1);
      const std::size_t next = rest.find_first_of("@+x~*");
      const std::string value{rest.substr(0, next)};
      rest = next == std::string_view::npos ? std::string_view{} : rest.substr(next);
      if (value.empty()) {
        return std::nullopt;
      }
      char* end = nullptr;
      switch (op) {
        case '@':
          pp.first = std::strtoull(value.c_str(), &end, 10);
          if (*end != '\0' || pp.first == 0) {
            return std::nullopt;
          }
          break;
        case '+':
          pp.period = std::strtoull(value.c_str(), &end, 10);
          if (*end != '\0' || pp.period == 0) {
            return std::nullopt;
          }
          break;
        case 'x':
          pp.count = std::strtoull(value.c_str(), &end, 10);
          if (*end != '\0' || pp.count == 0) {
            return std::nullopt;
          }
          explicit_count = true;
          break;
        case '~':
          pp.probability = std::strtod(value.c_str(), &end);
          if (*end != '\0' || pp.probability <= 0.0 || pp.probability > 1.0) {
            return std::nullopt;
          }
          pp.first = 0; // probabilistic mode
          break;
        case '*':
          pp.magnitude = std::strtod(value.c_str(), &end);
          if (*end != '\0' || pp.magnitude <= 0.0) {
            return std::nullopt;
          }
          break;
        default:
          return std::nullopt;
      }
    }
    // Repeating or probabilistic entries default to unlimited fires.
    if (!explicit_count && (pp.period > 0 || pp.probability > 0.0)) {
      pp.count = ~0ull;
    }
  }
  return plan;
}

} // namespace hpmmap::verify
