#include "os/scheduler.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace hpmmap::os {

Scheduler::Scheduler(std::uint32_t cores)
    : state_{.threads = {},
             .free_slots = {},
             .pinned_weight = std::vector<double>(cores, 0.0)},
      core_load_(cores, 0.0) {
  HPMMAP_ASSERT(cores > 0, "need at least one core");
}

Scheduler::Thread& Scheduler::checked(ThreadId id, const char* what) {
  HPMMAP_ASSERT(id.valid() && id.id <= state_.threads.size(), "bad thread id");
  Thread& t = state_.threads[id.id - 1];
  HPMMAP_ASSERT(t.gen == id.gen, "stale thread id (slot was recycled)");
  HPMMAP_ASSERT(t.live, what);
  return t;
}

Scheduler::ThreadId Scheduler::add_thread(std::int32_t core, double weight) {
  HPMMAP_ASSERT(core < static_cast<std::int32_t>(state_.pinned_weight.size()), "core out of range");
  HPMMAP_ASSERT(weight >= 0.0 && weight <= 1.0, "weight is a duty cycle");
  std::uint32_t slot;
  if (state_.free_slots.empty()) {
    slot = static_cast<std::uint32_t>(state_.threads.size());
    state_.threads.push_back(Thread{core, weight, 1, true});
  } else {
    slot = state_.free_slots.back();
    state_.free_slots.pop_back();
    Thread& t = state_.threads[slot];
    t.core = core;
    t.weight = weight;
    t.live = true; // generation was bumped at remove time
  }
  ++state_.live_count;
  if (core >= 0) {
    state_.pinned_weight[static_cast<std::size_t>(core)] += weight;
  } else {
    state_.unpinned_weight += weight;
  }
  dirty_ = true;
  if (trace::on(trace::Category::kSched)) {
    trace::instant(trace::Category::kSched, "sched.add_thread", 0, core,
                   {trace::Arg::u64("tid", slot + 1), trace::Arg::f64("weight", weight)});
    trace::counter(trace::Category::kSched, "sched.total_weight", total_weight());
  }
  return ThreadId{slot + 1, state_.threads[slot].gen};
}

void Scheduler::remove_thread(ThreadId id) {
  Thread& t = checked(id, "double remove");
  if (t.core >= 0) {
    state_.pinned_weight[static_cast<std::size_t>(t.core)] -= t.weight;
  } else {
    state_.unpinned_weight -= t.weight;
  }
  t.live = false;
  ++t.gen; // invalidate outstanding handles before the slot is reused
  state_.free_slots.push_back(id.id - 1);
  HPMMAP_ASSERT(state_.live_count > 0, "remove with no live threads");
  --state_.live_count;
  dirty_ = true;
  if (trace::on(trace::Category::kSched)) {
    trace::instant(trace::Category::kSched, "sched.remove_thread", 0, t.core,
                   {trace::Arg::u64("tid", id.id)});
    trace::counter(trace::Category::kSched, "sched.total_weight", total_weight());
  }
}

void Scheduler::set_weight(ThreadId id, double weight) {
  Thread& t = checked(id, "weight change on dead thread");
  if (t.core >= 0) {
    state_.pinned_weight[static_cast<std::size_t>(t.core)] += weight - t.weight;
  } else {
    state_.unpinned_weight += weight - t.weight;
  }
  t.weight = weight;
  dirty_ = true;
  if (trace::on(trace::Category::kSched)) {
    trace::instant(trace::Category::kSched, "sched.set_weight", 0, t.core,
                   {trace::Arg::u64("tid", id.id), trace::Arg::f64("weight", weight)});
  }
}

void Scheduler::recompute() const {
  if (!dirty_) {
    return;
  }
  // Water-fill the unpinned demand over the cores: find level L with
  // sum_c max(0, L - pinned_c) = unpinned. Then core load = max(pinned, L).
  std::vector<double> sorted = state_.pinned_weight;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  double remaining = state_.unpinned_weight;
  double level = 0.0;
  double filled = 0.0; // cores at or below the current level
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double step = sorted[i] - level;
    const double need = step * filled;
    if (need >= remaining) {
      break;
    }
    remaining -= need;
    level = sorted[i];
    filled += 1.0;
  }
  if (filled > 0.0) {
    level += remaining / filled;
  } else if (remaining > 0.0) {
    // Every core starts above zero pinned load: spread over all.
    level = sorted.empty() ? 0.0 : sorted[0];
    level += remaining / n;
  }
  water_level_ = level;
  for (std::size_t c = 0; c < state_.pinned_weight.size(); ++c) {
    core_load_[c] = std::max(state_.pinned_weight[c], water_level_);
  }
  dirty_ = false;
}

double Scheduler::dilation(std::int32_t core) const {
  recompute();
  if (core < 0) {
    return std::max(1.0, water_level_);
  }
  HPMMAP_ASSERT(core < static_cast<std::int32_t>(core_load_.size()), "core out of range");
  return std::max(1.0, core_load_[static_cast<std::size_t>(core)]);
}

double Scheduler::oversubscription() const {
  const double total = total_weight();
  const double n = static_cast<double>(state_.pinned_weight.size());
  return std::max(1.0, total / n);
}

double Scheduler::total_weight() const {
  double total = state_.unpinned_weight;
  for (double w : state_.pinned_weight) {
    total += w;
  }
  return total;
}

} // namespace hpmmap::os
