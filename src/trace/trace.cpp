#include "trace/trace.hpp"

#include <algorithm>

namespace hpmmap::trace {

namespace detail {
thread_local std::uint32_t g_enabled_mask = 0;
thread_local std::uint32_t g_current_span = 0;
thread_local bool g_spans_enabled = false;
} // namespace detail

namespace {

struct Clock {
  ClockFn fn = nullptr;
  const void* ctx = nullptr;
};

// Per-thread, like the rest of the run context: a worker thread's engine
// must not stamp (or clobber) another run's clock.
thread_local Clock g_clock;

constexpr std::array<Category, 12> kAllCategoryList = {
    Category::kFault, Category::kBuddy,  Category::kThp,
    Category::kHugetlb, Category::kModule, Category::kSched,
    Category::kNet,   Category::kApp,    Category::kHarness,
    Category::kVerify, Category::kServer, Category::kLock,
};

} // namespace

std::optional<std::uint32_t> parse_categories(std::string_view csv) {
  std::uint32_t mask = 0;
  while (!csv.empty()) {
    const std::size_t comma = csv.find(',');
    std::string_view tok = csv.substr(0, comma);
    csv = comma == std::string_view::npos ? std::string_view{} : csv.substr(comma + 1);
    if (tok.empty()) {
      continue;
    }
    if (tok == "all") {
      mask |= kAllCategories;
      continue;
    }
    if (tok == "none") {
      continue;
    }
    bool found = false;
    for (Category c : kAllCategoryList) {
      if (tok == name(c)) {
        mask |= static_cast<std::uint32_t>(c);
        found = true;
        break;
      }
    }
    if (!found) {
      return std::nullopt;
    }
  }
  return mask;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : state_{.ring = {}, .capacity = std::max<std::size_t>(capacity, 1)} {}

void FlightRecorder::set_capacity(std::size_t capacity) {
  state_ = State{.ring = {}, .capacity = std::max<std::size_t>(capacity, 1)};
}

void FlightRecorder::clear() noexcept {
  state_.ring.clear();
  state_.head = 0;
  state_.dropped = 0;
  state_.recorded = 0;
}

void FlightRecorder::push(const Event& e) {
  ++state_.recorded;
  if (state_.ring.size() < state_.capacity) {
    state_.ring.push_back(e);
    return;
  }
  // Full: overwrite the oldest entry and advance the head.
  state_.ring[state_.head] = e;
  state_.head = (state_.head + 1) % state_.capacity;
  ++state_.dropped;
}

std::vector<Event> FlightRecorder::snapshot() const {
  std::vector<Event> out;
  out.reserve(state_.ring.size());
  // head is the oldest entry once the ring has wrapped.
  for (std::size_t i = 0; i < state_.ring.size(); ++i) {
    out.push_back(state_.ring[(state_.head + i) % state_.ring.size()]);
  }
  return out;
}

void enable(std::uint32_t mask) noexcept { detail::g_enabled_mask = mask; }
void disable_all() noexcept { detail::g_enabled_mask = 0; }

void enable_spans(bool on) noexcept {
  detail::g_spans_enabled = on;
  if (!on) {
    detail::g_current_span = 0;
  }
}

namespace {
thread_local FlightRecorder* g_recorder_override = nullptr;
} // namespace

FlightRecorder& recorder() noexcept {
  static thread_local FlightRecorder r;
  return g_recorder_override != nullptr ? *g_recorder_override : r;
}

void set_recorder_override(FlightRecorder* r) noexcept { g_recorder_override = r; }

void set_clock(ClockFn fn, const void* ctx) noexcept {
  g_clock.fn = fn;
  g_clock.ctx = ctx;
}

void clear_clock(const void* ctx) noexcept {
  if (g_clock.ctx == ctx) {
    g_clock.fn = nullptr;
    g_clock.ctx = nullptr;
  }
}

Cycles clock_now() noexcept { return g_clock.fn != nullptr ? g_clock.fn(g_clock.ctx) : 0; }

namespace {

Event make(Category cat, const char* event_name, Cycles ts, Cycles dur, Phase phase, Pid pid,
           std::int32_t core, std::initializer_list<Arg> args) {
  Event e;
  e.ts = ts;
  e.dur = dur;
  e.event_name = event_name;
  e.cat = cat;
  e.phase = phase;
  e.pid = pid;
  e.core = core;
  e.span = detail::g_current_span;
  e.arg_count = static_cast<std::uint8_t>(std::min(args.size(), Event::kMaxArgs));
  std::copy_n(args.begin(), e.arg_count, e.args.begin());
  return e;
}

} // namespace

void complete(Category cat, const char* event_name, Cycles ts, Cycles dur, Pid pid,
              std::int32_t core, std::initializer_list<Arg> args) {
  if (!on(cat)) {
    return;
  }
  recorder().push(make(cat, event_name, ts, dur, Phase::kComplete, pid, core, args));
}

void instant(Category cat, const char* event_name, Pid pid, std::int32_t core,
             std::initializer_list<Arg> args) {
  if (!on(cat)) {
    return;
  }
  recorder().push(make(cat, event_name, clock_now(), 0, Phase::kInstant, pid, core, args));
}

void counter(Category cat, const char* event_name, double value, Pid pid) {
  if (!on(cat)) {
    return;
  }
  recorder().push(make(cat, event_name, clock_now(), 0, Phase::kCounter, pid, -1,
                       {Arg::f64("value", value)}));
}

} // namespace hpmmap::trace
