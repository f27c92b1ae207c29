#include "workloads/mpi_app.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "trace/trace.hpp"

namespace hpmmap::workloads {
namespace {

/// Slice size for first-touch so daemons and competing workloads
/// interleave with the fault storm.
constexpr std::uint64_t kTouchSlice = 1 * MiB;

} // namespace

CommModel shared_memory_comm(double clock_hz) {
  // OpenMPI shared-memory collectives: ~3 us per allreduce across a
  // node's ranks plus a per-rank linear term.
  return [clock_hz](const AppProfile& app, std::uint64_t ranks) -> Cycles {
    const double per_allreduce = 3e-6 + 0.4e-6 * static_cast<double>(ranks);
    const double secs = static_cast<double>(app.allreduces_per_iter) * per_allreduce +
                        static_cast<double>(app.halo_bytes_per_iter) / 4.0e9; // shm copy
    return static_cast<Cycles>(secs * clock_hz);
  };
}

MpiJob::MpiJob(sim::Engine& engine, MpiJobConfig config)
    : engine_(engine), config_(std::move(config)) {
  HPMMAP_ASSERT(!config_.ranks.empty(), "job needs at least one rank");
  if (!config_.comm) {
    config_.comm = shared_memory_comm(config_.ranks.front().node->spec().clock_hz);
  }
  ranks_.resize(config_.ranks.size());
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    ranks_[i].place = config_.ranks[i];
  }
}

double MpiJob::runtime_seconds() const {
  return config_.ranks.front().node->seconds(runtime_);
}

void MpiJob::start(std::function<void()> on_complete) {
  HPMMAP_ASSERT(!started_, "job started twice");
  started_ = true;
  on_complete_ = std::move(on_complete);
  job_start_ = engine_.now();
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    start_rank(i);
  }
}

Cycles MpiJob::dilated(const Rank& r, Cycles kernel_cycles) const {
  const double d = r.place.node->scheduler().dilation(r.place.core);
  return static_cast<Cycles>(static_cast<double>(kernel_cycles) * d);
}

void MpiJob::start_rank(std::size_t i) {
  Rank& r = ranks_[i];
  os::Node& node = *r.place.node;
  r.proc = &node.spawn(config_.app.name + "-r" + std::to_string(i), config_.policy,
                       r.place.core, /*duty=*/1.0, r.place.zone_policy, r.place.home_zone);
  if (trace::on(trace::Category::kApp)) {
    trace::instant(trace::Category::kApp, "rank.start", r.proc->pid(), r.place.core,
                   {trace::Arg::u64("rank", i),
                    trace::Arg::u64("bytes", config_.app.bytes_per_rank)});
  }

  // Register the rank's streaming DRAM demand, split across the zones it
  // allocates from.
  r.bw = node.bandwidth().register_consumer();
  const double demand = config_.app.stream_bytes_per_cycle;
  if (r.place.zone_policy == mm::AddressSpace::ZonePolicy::kInterleave &&
      node.spec().numa_zones > 1) {
    for (ZoneId z = 0; z < node.spec().numa_zones; ++z) {
      node.bandwidth().set_demand(r.bw, z, demand / node.spec().numa_zones);
    }
  } else {
    node.bandwidth().set_demand(r.bw, r.place.home_zone, demand);
  }

  // Build the address space: heap (brk), main mmap region, misc pools.
  Cycles setup_cost = 0;
  const AppProfile& app = config_.app;
  const auto brk_bytes =
      static_cast<std::uint64_t>(app.setup_brk_fraction * static_cast<double>(app.bytes_per_rank));
  const std::uint64_t mmap_bytes = app.bytes_per_rank - brk_bytes;

  os::Node::SysOut cur = node.sys_brk(*r.proc, 0);
  setup_cost += cur.cost;
  os::Node::SysOut heap = node.sys_brk(*r.proc, cur.addr + brk_bytes);
  HPMMAP_ASSERT(heap.err == Errno::kOk, "heap growth failed at setup");
  setup_cost += heap.cost;
  const Range heap_range{cur.addr, cur.addr + brk_bytes};

  // Arrays are allocated individually (64 MiB chunks), as real codes do;
  // under libhugetlbfs each allocation independently lands in the pool
  // or spills to small pages.
  std::vector<Range> data_chunks;
  std::uint64_t remaining = mmap_bytes;
  while (remaining > 0) {
    const std::uint64_t chunk = std::min<std::uint64_t>(remaining, app.data_chunk_bytes);
    os::Node::SysOut data = node.sys_mmap(*r.proc, chunk, kProtRW,
                                          os::Node::Segment::kHeapData);
    HPMMAP_ASSERT(data.err == Errno::kOk, "data mmap failed at setup");
    setup_cost += data.cost;
    data_chunks.push_back(Range{data.addr, data.addr + chunk});
    remaining -= chunk;
  }
  // For the re-reference probes, use the largest chunk (HPMMAP chunks
  // are separated by guard gaps, so the union is not probe-safe).
  Range data_range{0, 0};
  for (const Range& c : data_chunks) {
    if (c.size() > data_range.size()) {
      data_range = c;
    }
  }

  os::Node::SysOut misc = node.sys_mmap(*r.proc, app.misc_bytes, kProtRW,
                                        os::Node::Segment::kMisc);
  HPMMAP_ASSERT(misc.err == Errno::kOk, "misc mmap failed at setup");
  setup_cost += misc.cost;
  const Range misc_range{misc.addr, misc.addr + app.misc_bytes};

  const Range stack_range{mm::AddressLayout::kStackTop - app.stack_bytes,
                          mm::AddressLayout::kStackTop};

  r.heap_range = heap_range;
  r.data_range = data_range;
  r.touch_queue = {stack_range, misc_range, heap_range};
  r.touch_queue.insert(r.touch_queue.end(), data_chunks.begin(), data_chunks.end());
  r.tq_index = 0;
  r.tq_pos = r.touch_queue.front().begin;

  engine_.schedule(dilated(r, setup_cost), [this, i] { setup_step(i); });
}

void MpiJob::setup_step(std::size_t i) {
  Rank& r = ranks_[i];
  os::Node& node = *r.place.node;
  Cycles cost = 0;
  // Touch up to one slice, then yield so other actors interleave — the
  // quantum is small enough that a khugepaged merge started mid-storm
  // still holds the lock when the next slice faults (the concurrency a
  // real machine has between the daemon and the app).
  while (r.tq_index < r.touch_queue.size() && cost < node.spec().cycles(0.0002)) {
    const Range& region = r.touch_queue[r.tq_index];
    const Addr end = std::min(region.end, r.tq_pos + kTouchSlice);
    cost += node.touch_range(*r.proc, Range{r.tq_pos, end});
    r.tq_pos = end;
    if (r.tq_pos >= region.end) {
      ++r.tq_index;
      if (r.tq_index < r.touch_queue.size()) {
        r.tq_pos = r.touch_queue[r.tq_index].begin;
      }
    }
  }
  if (r.tq_index < r.touch_queue.size()) {
    engine_.schedule(dilated(r, cost), [this, i] { setup_step(i); });
    return;
  }
  // Setup done; enter the iteration loop via the first barrier so ranks
  // start iterating together (MPI_Init + first barrier semantics).
  engine_.schedule(dilated(r, cost), [this, i] { arrive_barrier(i); });
}

void MpiJob::iterate_step(std::size_t i) {
  Rank& r = ranks_[i];
  os::Node& node = *r.place.node;
  const AppProfile& app = config_.app;
  Cycles kernel_cost = 0;

  // Per-iteration temp churn: a fresh buffer is allocated up front, then
  // first-touched *throughout* the compute phase — real codes allocate
  // and write scratch as they go, which is why their fault activity is a
  // steady trickle rather than a per-iteration spike. That steadiness is
  // what lets khugepaged merges collide with faults (Figure 4).
  r.temp_addr = 0;
  r.substep = 0;
  r.substeps = 1;
  if (app.iter_alloc_bytes > 0) {
    os::Node::SysOut tmp =
        node.sys_mmap(*r.proc, app.iter_alloc_bytes, kProtRW, os::Node::Segment::kHeapData);
    if (tmp.err == Errno::kOk) {
      r.temp_addr = tmp.addr;
      kernel_cost += tmp.cost;
      // One substep per ~2 touched pages keeps fault gaps at the few-ms
      // scale the paper's fault traces show.
      const std::uint64_t pages = app.iter_alloc_bytes / kSmallPageSize;
      r.substeps = std::clamp<std::uint64_t>(pages / 2, 1, 512);
    }
  }
  engine_.schedule(dilated(r, kernel_cost), [this, i] { iterate_substep(i); });
}

void MpiJob::iterate_substep(std::size_t i) {
  Rank& r = ranks_[i];
  os::Node& node = *r.place.node;
  const AppProfile& app = config_.app;

  if (r.substep < r.substeps) {
    // One slice of compute plus one slice of scratch first-touch.
    const Cycles cpu_slice = app.cpu_per_iter / r.substeps;
    const auto access_slice =
        static_cast<std::uint64_t>(app.access_rate * static_cast<double>(cpu_slice));
    const Cycles compute = node.compute_burst(*r.proc, cpu_slice, access_slice, app.locality);
    Cycles kernel_cost = 0;
    if (r.temp_addr != 0) {
      const std::uint64_t slice_bytes = app.iter_alloc_bytes / r.substeps;
      const Addr begin = r.temp_addr + r.substep * slice_bytes;
      const Addr end = r.substep + 1 == r.substeps ? r.temp_addr + app.iter_alloc_bytes
                                                   : begin + slice_bytes;
      kernel_cost = node.touch_range(*r.proc, Range{begin, end});
    }
    ++r.substep;
    engine_.schedule(compute + dilated(r, kernel_cost), [this, i] { iterate_substep(i); });
    return;
  }

  Cycles kernel_cost = 0;
  if (r.temp_addr != 0) {
    os::Node::SysOut un = node.sys_munmap(*r.proc, r.temp_addr, app.iter_alloc_bytes);
    kernel_cost += un.cost;
    r.temp_addr = 0;
  }
  // Working-set re-reference: the solver sweeps its arrays every
  // iteration, so any page reclaim swapped out comes back as a major
  // fault now. A resident page probes for free; an evicted one pays the
  // disk read. (HPMMAP memory is never evicted — offlined frames are
  // invisible to reclaim.)
  for (int probe = 0; probe < 64; ++probe) {
    const Range& region = (probe % 2 == 0 && !r.data_range.empty()) ? r.data_range
                                                                    : r.heap_range;
    if (region.empty()) {
      break;
    }
    const Addr va = align_down(
        region.begin + node.rng().uniform(region.size()), kSmallPageSize);
    kernel_cost += node.touch_range(*r.proc, Range{va, va + kSmallPageSize});
  }
  engine_.schedule(dilated(r, kernel_cost), [this, i] { arrive_barrier(i); });
}

void MpiJob::arrive_barrier(std::size_t i) {
  waiting_.push_back(i);
  ++arrived_;
  if (arrived_ == ranks_.size()) {
    if (config_.barrier_hook) {
      config_.barrier_hook(engine_.now());
    } else {
      release_barrier();
    }
  }
}

void MpiJob::release_barrier() {
  const Cycles comm = config_.comm(config_.app, ranks_.size());
  if (external_release(engine_.now() + comm)) {
    engine_.schedule(comm, [this] { finish_job(); });
  }
}

bool MpiJob::external_release(Cycles release_time) {
  arrived_ = 0;
  std::vector<std::size_t> woken;
  woken.swap(waiting_);
  bool all_done = true;
  for (std::size_t i : woken) {
    Rank& r = ranks_[i];
    if (r.iteration < config_.app.iterations) {
      ++r.iteration;
      all_done = false;
      engine_.schedule_at(release_time, [this, i] { iterate_step(i); });
    } else if (!r.finished) {
      r.finished = true;
      r.finish_time = release_time;
      if (trace::on(trace::Category::kApp)) {
        trace::instant(trace::Category::kApp, "rank.finish", r.proc->pid(), r.place.core,
                       {trace::Arg::u64("rank", i),
                        trace::Arg::u64("iterations", r.iteration)});
      }
    }
  }
  return all_done;
}

void MpiJob::external_finish(Cycles finish_time) {
  engine_.schedule_at(finish_time, [this] { finish_job(); });
}

void MpiJob::finish_job() {
  Cycles last = job_start_;
  for (const Rank& r : ranks_) {
    last = std::max(last, r.finish_time);
  }
  runtime_ = last - job_start_;
  final_mix_ = ranks_.front().proc->address_space().mapping_mix();
  // Teardown: processes exit and release their memory (not charged to
  // the reported runtime, matching how the benchmarks time their solve).
  for (Rank& r : ranks_) {
    r.place.node->bandwidth().clear_demand(r.bw);
    r.place.node->exit_process(*r.proc);
  }
  completed_ = true;
  if (on_complete_) {
    on_complete_();
  }
}

mm::FaultStats MpiJob::aggregate_faults() const {
  mm::FaultStats total;
  for (const Rank& r : ranks_) {
    total.add(r.proc->fault_stats());
  }
  return total;
}

const os::Process& MpiJob::rank_process(std::size_t i) const {
  HPMMAP_ASSERT(i < ranks_.size(), "rank index out of range");
  return *ranks_[i].proc;
}

} // namespace hpmmap::workloads
