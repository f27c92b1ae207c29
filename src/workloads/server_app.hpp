// Datacenter request/response service on the simulated node.
//
// The HPC workloads in this repo stress the managers with one giant
// fault storm followed by steady iteration. A serving workload stresses
// them the way a datacenter does: a continuous stream of small requests,
// each of which (a) churns short-lived allocations through a slab arena,
// (b) serves a Zipf-popular object out of the page cache (evicted
// objects pay a disk read and re-enter the cache), and (c) touches a
// long-lived session table that reclaim may have swapped out under
// memory pressure. Latency is measured per request, end to end, against
// an open-loop arrival schedule (serving/arrival.hpp) — so queueing
// delay and shedding show up in the tail instead of being absorbed by a
// slower request issue rate.
//
// Workers are separate simulated processes pinned to cores, backed by
// whichever MmPolicy is under test; all manager-dependent cost flows
// through the existing fault/syscall path (SlabArena, touch_range,
// compute_burst). The actor itself is deterministic given (config,
// schedule, rng): requests are dispatched in arrival order, per-request
// randomness is precomputed in the schedule, and session-table probe
// addresses derive from the request's own key, so every manager under
// comparison sees identical work (common random numbers).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "os/node.hpp"
#include "profile/attribution.hpp"
#include "serving/arrival.hpp"
#include "serving/slab.hpp"
#include "serving/slo.hpp"

namespace hpmmap::workloads {

struct ServerConfig {
  os::MmPolicy policy = os::MmPolicy::kLinuxThp;
  /// Worker processes, pinned to cores 0..workers-1.
  std::uint32_t workers = 4;
  /// Admission queue capacity; arrivals beyond it are shed immediately.
  std::uint32_t queue_depth = 64;
  /// Requests older than this at dispatch time are shed (their user
  /// already gave up); 0 disables timeout shedding.
  double queue_timeout_seconds = 0.02;

  // --- served object set (page cache) --------------------------------------
  std::uint64_t object_count = 512;
  /// Buddy order per cached object (4 => 16 pages = 64 KiB).
  unsigned object_order = 4;
  /// Zipf popularity exponent over the object set.
  double zipf_s = 0.99;

  // --- per-request work ----------------------------------------------------
  /// On-core compute per request (scaled by the schedule's work_jitter).
  double hit_work_seconds = 25e-6;
  /// Extra charge when the object was evicted from the page cache — the
  /// synchronous disk read the cache exists to avoid.
  double miss_extra_seconds = 150e-6;
  /// Request buffer size: size_quantile maps log-uniformly across
  /// [min, max]. A max above SlabArena::kMaxClassBytes makes the biggest
  /// requests take the direct-mmap path.
  std::uint64_t request_alloc_min = 512;
  std::uint64_t request_alloc_max = 256 * KiB;
  /// Long-lived per-worker region (connection/session state), touched a
  /// few pages per request — the anonymous memory reclaim can swap out
  /// under pressure (never for HPMMAP: offlined frames are invisible).
  /// The default fills the §IV reservation like the HPC apps do: 4
  /// workers x 2.75 GiB = 11 GiB, so under plain Linux the service
  /// competes with the commodity side for the whole machine.
  std::uint64_t session_table_bytes = 2816 * MiB;
  std::uint32_t session_probes = 4;

  /// Zone for the served object set (worker processes themselves are
  /// split across sockets/zones like the HPC ranks).
  ZoneId zone = 0;
  /// Latency budgets the SLO accountant scores against.
  std::vector<serving::SloBudget> budgets;
};

struct ServerStats {
  std::uint64_t offered = 0;    // schedule entries replayed
  std::uint64_t admitted = 0;   // entered the queue
  std::uint64_t shed_queue = 0; // rejected: queue full
  std::uint64_t shed_timeout = 0; // rejected: waited too long
  std::uint64_t completed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  serving::SlabStats slab; // summed over workers
};

/// The service actor. One instance per simulated node + manager config.
class ServerApp {
 public:
  ServerApp(sim::Engine& engine, os::Node& node, ServerConfig config,
            std::vector<serving::ScheduledRequest> schedule, Rng rng);
  ~ServerApp();
  ServerApp(const ServerApp&) = delete;
  ServerApp& operator=(const ServerApp&) = delete;

  /// Spawn workers, build their address spaces, populate the object
  /// cache, then replay the arrival schedule. `on_complete` fires after
  /// the last request drains and workers exit.
  void start(std::function<void()> on_complete = {});

  [[nodiscard]] bool done() const noexcept { return completed_; }
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const serving::SloAccountant& slo() const noexcept { return slo_; }
  [[nodiscard]] const serving::LatencyRecorder& latency() const noexcept { return latency_; }
  /// Sum of all workers' fault statistics.
  [[nodiscard]] mm::FaultStats aggregate_faults() const;

  // --- pure observers (telemetry probes; consume no randomness) ----------
  [[nodiscard]] double queue_depth_now() const noexcept {
    return static_cast<double>(queue_.size());
  }
  [[nodiscard]] double in_flight_now() const noexcept { return static_cast<double>(in_flight_); }
  [[nodiscard]] double shed_total() const noexcept {
    return static_cast<double>(stats_.shed_queue + stats_.shed_timeout);
  }
  [[nodiscard]] double completed_total() const noexcept {
    return static_cast<double>(stats_.completed);
  }

  /// Attach a latency-attribution profiler (nullptr detaches). A pure
  /// observer: the actor feeds it the integer cycle terms it already
  /// charges, so attaching one changes no simulated outcome.
  void set_profiler(profile::RequestProfiler* p) noexcept { profiler_ = p; }

 private:
  struct Worker {
    os::Process* proc = nullptr;
    std::unique_ptr<serving::SlabArena> slab;
    Range session_table{};
    Addr setup_pos = 0; // sliced first-touch cursor
    bool ready = false;
    bool busy = false;
  };

  struct QueuedRequest {
    std::size_t index = 0; // into schedule_
    Cycles arrival = 0;    // absolute engine time
  };

  void start_worker(std::size_t w);
  void worker_setup_step(std::size_t w);
  void on_workers_ready();
  void pump_arrivals();
  void dispatch(std::size_t w);
  /// Lock-wait counters right now (zeros without an SMP domain), read
  /// as deltas around synchronous blocks for per-request attribution.
  [[nodiscard]] profile::LockWaits lock_waits_now() const noexcept;
  void serve_phase(std::size_t w, QueuedRequest req, std::uint64_t buf_bytes, Addr buf_addr,
                   bool buf_large);
  void finish_request(std::size_t w, QueuedRequest req);
  void maybe_finish();
  [[nodiscard]] Cycles dilated(const Worker& w, Cycles kernel_cycles) const;
  /// Map a schedule entry's uniform object_key onto a Zipf-ranked object.
  [[nodiscard]] std::size_t zipf_object(std::uint64_t key) const;
  /// Request buffer size for a size_quantile draw (log-uniform).
  [[nodiscard]] std::uint64_t request_bytes(double quantile) const;
  /// Ensure object `idx` is cache-resident; returns true on a hit.
  bool object_resident(std::size_t idx);

  sim::Engine& engine_;
  os::Node& node_;
  ServerConfig config_;
  std::vector<serving::ScheduledRequest> schedule_;
  std::vector<Worker> workers_;
  std::vector<Addr> objects_;     // cached block base per object, 0 = never adopted
  std::vector<double> zipf_cdf_;  // cumulative popularity by rank
  std::deque<QueuedRequest> queue_;
  std::size_t next_arrival_ = 0;  // schedule cursor
  Cycles epoch_ = 0;              // engine time the schedule replays against
  std::uint32_t in_flight_ = 0;
  std::size_t workers_ready_ = 0;
  Cycles timeout_cycles_ = 0;
  ServerStats stats_;
  serving::SloAccountant slo_;
  serving::LatencyRecorder latency_;
  std::function<void()> on_complete_;
  profile::RequestProfiler* profiler_ = nullptr;
  // request_bytes()'s log-uniform bounds, taken once from the config.
  double log_alloc_min_;
  double log_alloc_max_;
  bool started_ = false;
  bool completed_ = false;
};

} // namespace hpmmap::workloads
