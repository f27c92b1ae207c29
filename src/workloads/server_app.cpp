#include "workloads/server_app.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "trace/trace.hpp"

namespace hpmmap::workloads {
namespace {

/// Setup first-touch slice (same interleaving rationale as MpiJob).
constexpr std::uint64_t kTouchSlice = 1 * MiB;

/// Deterministic per-request hash for session-probe addresses: derived
/// from the request's own key so every manager probes the same pages
/// (common random numbers), with no RNG state consumed at serve time.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

} // namespace

ServerApp::ServerApp(sim::Engine& engine, os::Node& node, ServerConfig config,
                     std::vector<serving::ScheduledRequest> schedule, Rng rng)
    : engine_(engine),
      node_(node),
      config_(std::move(config)),
      schedule_(std::move(schedule)),
      slo_(config_.budgets),
      latency_(rng.fork("latency")),
      log_alloc_min_(
          std::log(static_cast<double>(std::max<std::uint64_t>(config_.request_alloc_min, 1)))),
      log_alloc_max_(std::log(static_cast<double>(
          std::max(config_.request_alloc_max, config_.request_alloc_min)))) {
  HPMMAP_ASSERT(config_.workers > 0, "service needs at least one worker");
  HPMMAP_ASSERT(config_.object_count > 0, "service needs an object set");
  workers_.resize(config_.workers);
  objects_.assign(config_.object_count, 0);
  timeout_cycles_ = node_.spec().cycles(config_.queue_timeout_seconds);

  // Zipf popularity: weight 1/rank^s, cumulative and normalized so a
  // uniform draw maps to a rank by binary search.
  zipf_cdf_.resize(config_.object_count);
  double total = 0.0;
  for (std::size_t r = 0; r < config_.object_count; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), config_.zipf_s);
    zipf_cdf_[r] = total;
  }
  for (double& c : zipf_cdf_) {
    c /= total;
  }
}

ServerApp::~ServerApp() = default;

Cycles ServerApp::dilated(const Worker& w, Cycles kernel_cycles) const {
  const double d = node_.scheduler().dilation(w.proc->core());
  return static_cast<Cycles>(static_cast<double>(kernel_cycles) * d);
}

profile::LockWaits ServerApp::lock_waits_now() const noexcept {
  profile::LockWaits lw;
  if (const mm::SmpDomain* smp = node_.smp()) {
    const mm::SmpStats& s = smp->stats();
    lw.mmap_sem = static_cast<std::int64_t>(s.mmap_sem_wait);
    lw.pt = static_cast<std::int64_t>(s.pt_lock_wait);
    lw.zone = static_cast<std::int64_t>(s.zone_lock_wait);
    lw.ipi_stall = static_cast<std::int64_t>(s.ipi_stall);
  }
  return lw;
}

std::size_t ServerApp::zipf_object(std::uint64_t key) const {
  const double u =
      static_cast<double>(key >> 11) * 0x1.0p-53; // top 53 bits -> uniform [0,1)
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const auto rank = static_cast<std::size_t>(it - zipf_cdf_.begin());
  return std::min(rank, objects_.size() - 1);
}

std::uint64_t ServerApp::request_bytes(double quantile) const {
  return static_cast<std::uint64_t>(
      std::exp(log_alloc_min_ + quantile * (log_alloc_max_ - log_alloc_min_)));
}

void ServerApp::start(std::function<void()> on_complete) {
  HPMMAP_ASSERT(!started_, "service started twice");
  started_ = true;
  on_complete_ = std::move(on_complete);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    start_worker(w);
  }
}

void ServerApp::start_worker(std::size_t w) {
  Worker& wk = workers_[w];
  // Same split as the HPC rank placement: half the workers on each
  // socket, memory from the local zone.
  const std::uint32_t per_socket = node_.spec().cores_per_socket;
  const std::size_t half = (workers_.size() + 1) / 2;
  const bool second_socket = w >= half && node_.spec().numa_zones > 1;
  const std::size_t idx = second_socket ? w - half : w;
  HPMMAP_ASSERT(idx < per_socket, "more workers than cores per socket half");
  const auto core = static_cast<std::int32_t>(second_socket ? per_socket + idx : idx);
  const ZoneId home = second_socket ? 1 : 0;
  wk.proc = &node_.spawn("srv-w" + std::to_string(w), config_.policy, core,
                         /*duty=*/1.0, mm::AddressSpace::ZonePolicy::kSingle, home);
  wk.slab = std::make_unique<serving::SlabArena>(node_, *wk.proc);

  // The session table: long-lived anonymous memory the worker touches a
  // few pages of per request. Under reclaim pressure the Linux managers
  // can swap parts of it; those probes then pay major faults.
  Cycles cost = 0;
  os::Node::SysOut table = node_.sys_mmap(*wk.proc, config_.session_table_bytes, kProtRW,
                                          os::Node::Segment::kHeapData);
  HPMMAP_ASSERT(table.err == Errno::kOk, "session table mmap failed");
  cost += table.cost;
  wk.session_table = Range{table.addr, table.addr + config_.session_table_bytes};
  wk.setup_pos = wk.session_table.begin;
  engine_.schedule(dilated(wk, cost), [this, w] { worker_setup_step(w); });
}

void ServerApp::worker_setup_step(std::size_t w) {
  Worker& wk = workers_[w];
  Cycles cost = 0;
  while (wk.setup_pos < wk.session_table.end && cost < node_.spec().cycles(0.0002)) {
    const Addr end = std::min(wk.session_table.end, wk.setup_pos + kTouchSlice);
    cost += node_.touch_range(*wk.proc, Range{wk.setup_pos, end});
    wk.setup_pos = end;
  }
  if (wk.setup_pos < wk.session_table.end) {
    engine_.schedule(dilated(wk, cost), [this, w] { worker_setup_step(w); });
    return;
  }
  wk.ready = true;
  ++workers_ready_;
  if (trace::on(trace::Category::kServer)) {
    trace::instant(trace::Category::kServer, "worker.ready", wk.proc->pid(),
                   wk.proc->core(), {trace::Arg::u64("worker", w)});
  }
  if (workers_ready_ == workers_.size()) {
    engine_.schedule(dilated(wk, cost), [this] { on_workers_ready(); });
  }
}

void ServerApp::on_workers_ready() {
  // Populate the served object set in the page cache (a warm content
  // cache at service start). Objects evicted later by kswapd re-enter on
  // their first miss.
  mm::PageCache& cache = node_.memory().cache(config_.zone);
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    if (std::optional<Addr> blk = node_.kernel_alloc(config_.zone, config_.object_order)) {
      cache.adopt(*blk, config_.object_order, /*dirty=*/false);
      objects_[i] = *blk;
    }
  }
  // The schedule replays relative to now: warmup/setup never sheds.
  epoch_ = engine_.now();
  pump_arrivals();
}

void ServerApp::pump_arrivals() {
  if (next_arrival_ >= schedule_.size()) {
    maybe_finish();
    return;
  }
  const std::size_t i = next_arrival_;
  engine_.schedule_at(epoch_ + schedule_[i].arrival, [this, i] {
    ++stats_.offered;
    if (queue_.size() >= config_.queue_depth) {
      ++stats_.shed_queue;
      slo_.on_shed();
      if (trace::on(trace::Category::kServer)) {
        trace::instant(trace::Category::kServer, "req.shed", 0, -1,
                       {trace::Arg::str("reason", "queue_full"),
                        trace::Arg::u64("req", i)});
      }
    } else {
      ++stats_.admitted;
      queue_.push_back(QueuedRequest{i, engine_.now()});
      for (std::size_t w = 0; w < workers_.size(); ++w) {
        if (workers_[w].ready && !workers_[w].busy) {
          workers_[w].busy = true;
          dispatch(w);
          break;
        }
      }
    }
    ++next_arrival_;
    pump_arrivals();
  });
}

void ServerApp::dispatch(std::size_t w) {
  Worker& wk = workers_[w];
  while (!queue_.empty()) {
    QueuedRequest req = queue_.front();
    queue_.pop_front();
    if (timeout_cycles_ > 0 && engine_.now() - req.arrival > timeout_cycles_) {
      // The client gave up while the request sat in the queue; doing the
      // work now would be wasted. Shed and take the next one.
      ++stats_.shed_timeout;
      slo_.on_shed();
      if (trace::on(trace::Category::kServer)) {
        trace::instant(trace::Category::kServer, "req.shed", wk.proc->pid(), wk.proc->core(),
                       {trace::Arg::str("reason", "timeout"),
                        trace::Arg::u64("req", req.index)});
      }
      continue;
    }

    // Phase 1: request parse/build — allocation churn through the slab
    // arena plus session-state touches. The SpanScope stamps every
    // tracepoint fired underneath (slab mmaps, faults, lock waits)
    // with this request's causal span.
    ++in_flight_;
    trace::SpanScope span(static_cast<std::uint32_t>(req.index + 1));
    const serving::ScheduledRequest& sr = schedule_[req.index];
    const std::uint64_t bytes = request_bytes(sr.size_quantile);
    const profile::LockWaits locks_before = profiler_ != nullptr ? lock_waits_now()
                                                                 : profile::LockWaits{};
    serving::SlabArena::Alloc buf = wk.slab->allocate(bytes);
    Cycles cost = buf.cost;
    const std::uint64_t pages = wk.session_table.size() / kSmallPageSize;
    for (std::uint32_t p = 0; p < config_.session_probes && pages > 0; ++p) {
      const std::uint64_t h = splitmix64(sr.object_key ^ (0x100000001b3ull * (p + 1)));
      const Addr va = wk.session_table.begin + (h % pages) * kSmallPageSize;
      cost += node_.touch_range(*wk.proc, Range{va, va + kSmallPageSize});
    }
    const Cycles delay = dilated(wk, cost);
    if (profiler_ != nullptr) {
      const profile::LockWaits after = lock_waits_now();
      profile::LockWaits delta;
      delta.mmap_sem = after.mmap_sem - locks_before.mmap_sem;
      delta.pt = after.pt - locks_before.pt;
      delta.zone = after.zone - locks_before.zone;
      delta.ipi_stall = after.ipi_stall - locks_before.ipi_stall;
      profiler_->on_dispatch(req.index, req.arrival,
                             static_cast<std::int64_t>(engine_.now() - req.arrival),
                             static_cast<std::int64_t>(buf.cost),
                             static_cast<std::int64_t>(cost - buf.cost), delta,
                             static_cast<std::int64_t>(delay) - static_cast<std::int64_t>(cost));
    }
    engine_.schedule(delay, [this, w, req, bytes, buf] {
      serve_phase(w, req, bytes, buf.addr, buf.large);
    });
    return;
  }
  wk.busy = false;
  maybe_finish();
}

bool ServerApp::object_resident(std::size_t idx) {
  mm::PageCache& cache = node_.memory().cache(config_.zone);
  const Addr addr = objects_[idx];
  if (addr != 0) {
    if (std::optional<std::pair<Addr, unsigned>> blk = cache.block_containing(addr)) {
      if (blk->first == addr) {
        return true;
      }
    }
  }
  // Evicted (or never cached): the miss path re-reads it from "disk"
  // into the cache so later requests hit again.
  if (std::optional<Addr> blk = node_.kernel_alloc(config_.zone, config_.object_order)) {
    cache.adopt(*blk, config_.object_order, /*dirty=*/false);
    objects_[idx] = *blk;
  } else {
    objects_[idx] = 0;
  }
  return false;
}

void ServerApp::serve_phase(std::size_t w, QueuedRequest req, std::uint64_t buf_bytes,
                            Addr buf_addr, bool buf_large) {
  Worker& wk = workers_[w];
  const serving::ScheduledRequest& sr = schedule_[req.index];

  // Phase 2: serve the object. Residency decides hit vs miss; the
  // compute burst pays TLB and bandwidth costs under the worker's
  // current mapping mix.
  trace::SpanScope span(static_cast<std::uint32_t>(req.index + 1));
  const std::size_t obj = zipf_object(sr.object_key);
  Cycles wait = 0;
  if (object_resident(obj)) {
    ++stats_.cache_hits;
  } else {
    ++stats_.cache_misses;
    wait += node_.spec().cycles(config_.miss_extra_seconds);
  }
  const auto work =
      static_cast<Cycles>(node_.spec().clock_hz * config_.hit_work_seconds * sr.work_jitter);
  const auto accesses = static_cast<std::uint64_t>(static_cast<double>(work) * 0.15);
  const Cycles compute = node_.compute_burst(*wk.proc, work, accesses, /*locality=*/0.96);

  Cycles kernel_cost = 0;
  if (buf_addr != 0) {
    kernel_cost += wk.slab->free(buf_addr, buf_bytes);
  }
  (void)buf_large;
  const Cycles kernel_delay = dilated(wk, kernel_cost);
  if (profiler_ != nullptr) {
    profiler_->on_serve(req.index, static_cast<std::int64_t>(wait),
                        static_cast<std::int64_t>(work),
                        static_cast<std::int64_t>(compute) - static_cast<std::int64_t>(work),
                        static_cast<std::int64_t>(kernel_cost),
                        static_cast<std::int64_t>(kernel_delay) -
                            static_cast<std::int64_t>(kernel_cost));
  }
  engine_.schedule(wait + compute + kernel_delay, [this, w, req] { finish_request(w, req); });
}

void ServerApp::finish_request(std::size_t w, QueuedRequest req) {
  Worker& wk = workers_[w];
  trace::SpanScope span(static_cast<std::uint32_t>(req.index + 1));
  const Cycles lat = engine_.now() - req.arrival;
  ++stats_.completed;
  --in_flight_;
  slo_.on_complete(lat);
  latency_.add(node_.seconds(lat) * 1e6); // microseconds
  if (profiler_ != nullptr) {
    profiler_->on_finish(req.index, lat);
  }
  if (trace::on(trace::Category::kServer)) {
    trace::complete(trace::Category::kServer, "req", req.arrival, lat, wk.proc->pid(),
                    wk.proc->core(), {trace::Arg::u64("req", req.index)});
  }
  dispatch(w);
}

void ServerApp::maybe_finish() {
  if (completed_ || next_arrival_ < schedule_.size() || !queue_.empty() || in_flight_ > 0) {
    return;
  }
  for (const Worker& wk : workers_) {
    if (wk.busy) {
      return;
    }
  }
  completed_ = true;
  for (Worker& wk : workers_) {
    const serving::SlabStats& s = wk.slab->stats();
    stats_.slab.objects_allocated += s.objects_allocated;
    stats_.slab.objects_recycled += s.objects_recycled;
    stats_.slab.chunks_mapped += s.chunks_mapped;
    stats_.slab.large_allocs += s.large_allocs;
    stats_.slab.bytes_mapped += s.bytes_mapped;
    stats_.slab.alloc_failures += s.alloc_failures;
    wk.slab->release_all();
    node_.exit_process(*wk.proc);
  }
  if (on_complete_) {
    on_complete_();
  }
}

mm::FaultStats ServerApp::aggregate_faults() const {
  mm::FaultStats total;
  for (const Worker& wk : workers_) {
    total.add(wk.proc->fault_stats());
  }
  return total;
}

} // namespace hpmmap::workloads
