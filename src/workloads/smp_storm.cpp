#include "workloads/smp_storm.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace hpmmap::workloads {

SmpStorm::SmpStorm(sim::Engine& engine, os::Node& node, SmpStormConfig config)
    : engine_(engine), node_(node), config_(config) {
  HPMMAP_ASSERT(config_.cores > 0, "storm needs at least one core");
  HPMMAP_ASSERT(config_.slab_bytes >= kSmallPageSize &&
                    is_aligned(config_.slab_bytes, kSmallPageSize),
                "slab is not a whole number of pages");
  workers_.resize(config_.cores);
  const std::uint32_t zones = node_.spec().numa_zones;
  if (config_.shared_process) {
    // A threaded app: one address space, one mm, faulted from every
    // core. Interleaved zone placement spreads the allocations over
    // both zone locks, the way a NUMA-oblivious allocator behaves.
    os::Process& proc =
        node_.spawn("smp_storm", config_.policy, /*core=*/-1, /*duty=*/1.0,
                    mm::AddressSpace::ZonePolicy::kInterleave, /*home_zone=*/0);
    for (std::uint32_t c = 0; c < config_.cores; ++c) {
      workers_[c].proc = &proc;
      workers_[c].core = static_cast<std::int32_t>(c);
    }
  } else {
    for (std::uint32_t c = 0; c < config_.cores; ++c) {
      os::Process& proc =
          node_.spawn("smp_storm" + std::to_string(c), config_.policy,
                      static_cast<std::int32_t>(c), /*duty=*/1.0,
                      mm::AddressSpace::ZonePolicy::kSingle, /*home_zone=*/c % zones);
      workers_[c].proc = &proc;
      workers_[c].core = static_cast<std::int32_t>(c);
    }
  }
}

void SmpStorm::start(std::function<void()> on_complete) {
  on_complete_ = std::move(on_complete);
  start_time_ = engine_.now();
  last_finish_ = start_time_;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    engine_.schedule(0, [this, i] { begin_round(i); });
  }
}

void SmpStorm::begin_round(std::size_t i) {
  Worker& w = workers_[i];
  if (w.round == config_.rounds) {
    finish_worker(i);
    return;
  }
  // Each storm worker is a causal actor: the lock waits and shootdowns
  // its fault path suffers are attributed to span = worker index + 1.
  trace::SpanScope span(static_cast<std::uint32_t>(i + 1));
  const os::Node::SysOut out =
      node_.sys_mmap(*w.proc, config_.slab_bytes, kProtRW, os::Node::Segment::kHeapData, w.core);
  HPMMAP_ASSERT(out.err == Errno::kOk, "storm slab mmap failed");
  w.slab = out.addr;
  w.pos = out.addr;
  engine_.schedule(std::max<Cycles>(out.cost, 1), [this, i] { touch_step(i); });
}

void SmpStorm::touch_step(std::size_t i) {
  Worker& w = workers_[i];
  trace::SpanScope span(static_cast<std::uint32_t>(i + 1));
  const Cycles cost =
      node_.touch_range(*w.proc, Range{w.pos, w.pos + kSmallPageSize}, w.core) + kAppWorkPerPage;
  ++pages_touched_;
  w.pos += kSmallPageSize;
  if (w.pos < w.slab + config_.slab_bytes) {
    engine_.schedule(std::max<Cycles>(cost, 1), [this, i] { touch_step(i); });
  } else {
    engine_.schedule(std::max<Cycles>(cost, 1), [this, i] { end_round(i); });
  }
}

void SmpStorm::end_round(std::size_t i) {
  Worker& w = workers_[i];
  trace::SpanScope span(static_cast<std::uint32_t>(i + 1));
  const os::Node::SysOut out = node_.sys_munmap(*w.proc, w.slab, config_.slab_bytes, w.core);
  HPMMAP_ASSERT(out.err == Errno::kOk, "storm slab munmap failed");
  ++w.round;
  engine_.schedule(std::max<Cycles>(out.cost, 1), [this, i] { begin_round(i); });
}

void SmpStorm::finish_worker(std::size_t i) {
  (void)i;
  last_finish_ = std::max(last_finish_, engine_.now());
  ++finished_;
  if (finished_ == workers_.size() && on_complete_) {
    on_complete_();
  }
}

mm::FaultStats SmpStorm::aggregate_faults() const {
  mm::FaultStats total;
  const os::Process* last = nullptr;
  for (const Worker& w : workers_) {
    if (w.proc == last) {
      continue; // shared process: count once
    }
    last = w.proc;
    total.add(w.proc->fault_stats());
  }
  return total;
}

} // namespace hpmmap::workloads
