// Engine + batch-runner throughput, self-reported as JSON.
//
// Two measurements, two files (under --out-dir, default ./results):
//
//   BENCH_engine.json — raw event-loop throughput (events/sec) of the
//   current sim::Engine on a self-rescheduling actor workload with
//   cancel churn, against a live-measured `baseline`: the pre-optimization
//   engine (std::function callbacks, std::priority_queue, tombstone-set
//   cancellation) compiled into this binary verbatim. Measuring the
//   baseline in-process makes the improvement ratio machine-independent.
//
//   BENCH_batch.json — wall-time of a Figure-8-shaped sweep (2 managers
//   x 4 trials of 8-node HPCCG under profile C) through the batch runner
//   at --jobs 1 vs --jobs N, with a byte-identity self-check on the two
//   result sets; `speedup` is null unless bench::speedup_measured(jobs).
//
// Usage: bench_engine_throughput [--full] [--jobs N] [--out-dir DIR]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"
#include "harness/batch.hpp"
#include "harness/experiment.hpp"
#include "sim/engine.hpp"

namespace {

using namespace hpmmap;

// ---------------------------------------------------------------------------
// The pre-optimization engine, embedded as the measured baseline. This is
// the shipped implementation before the SBO-callback/slot-generation/arena
// rework: type-erased std::function callbacks (one heap allocation per
// capture that outgrows the SSO), std::priority_queue (copy out of top()),
// and an unordered_set of cancelled sequence numbers consulted on every pop.
// ---------------------------------------------------------------------------

namespace legacy {

struct EventId {
  std::uint64_t seq = 0;
  [[nodiscard]] bool valid() const noexcept { return seq != 0; }
};

class Engine {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] Cycles now() const noexcept { return now_; }

  EventId schedule(Cycles delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  EventId schedule_at(Cycles when, Callback fn) {
    HPMMAP_ASSERT(when >= now_, "cannot schedule an event in the past");
    HPMMAP_ASSERT(fn != nullptr, "event callback must be callable");
    const std::uint64_t seq = next_seq_++;
    heap_.push(Entry{when, seq, std::move(fn)});
    return EventId{seq};
  }

  void cancel(EventId id) {
    if (id.valid()) {
      cancelled_.insert(id.seq);
    }
  }

  void run() {
    stopped_ = false;
    while (!stopped_ && fire_next(~Cycles{0})) {
    }
  }

  void stop() noexcept { stopped_ = true; }
  [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }

 private:
  struct Entry {
    Cycles when;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  bool fire_next(Cycles limit) {
    while (!heap_.empty()) {
      if (heap_.top().when > limit) {
        return false;
      }
      Entry e = heap_.top();
      heap_.pop();
      if (auto it = cancelled_.find(e.seq); it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      now_ = e.when;
      ++fired_;
      e.fn();
      return true;
    }
    return false;
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_set<std::uint64_t> cancelled_;
  Cycles now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  bool stopped_ = false;
};

} // namespace legacy

// ---------------------------------------------------------------------------
// Workload: kActors self-rescheduling actors with deterministic xorshift
// delays; every 4th firing schedules a decoy event and immediately cancels
// it. This is the shape of the simulator's real load (compute-burst
// reschedules + timer cancellations), so both engines are compared on
// exactly the traffic they serve in the figures.
// ---------------------------------------------------------------------------

template <typename EngineT>
class ChurnDriver {
 public:
  ChurnDriver(EngineT& eng, std::uint64_t target) : eng_(eng), target_(target) {}

  void start(unsigned actors) {
    for (unsigned a = 0; a < actors; ++a) {
      eng_.schedule(next_delay(), [this, a] { step(a); });
    }
  }

  [[nodiscard]] std::uint64_t steps() const noexcept { return done_; }

 private:
  void step(unsigned actor) {
    if (++done_ >= target_) {
      eng_.stop();
      return;
    }
    eng_.schedule(next_delay(), [this, actor] { step(actor); });
    if ((done_ & 3u) == 0) {
      const auto decoy = eng_.schedule(next_delay() + 7, [this] { ++stray_; });
      eng_.cancel(decoy);
    }
  }

  Cycles next_delay() noexcept {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return 1 + (rng_ & 0xFF);
  }

  EngineT& eng_;
  std::uint64_t target_;
  std::uint64_t done_ = 0;
  std::uint64_t stray_ = 0;
  std::uint64_t rng_ = 0x243F6A8885A308D3ull;
};

struct Throughput {
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  [[nodiscard]] double events_per_sec() const noexcept {
    return wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0.0;
  }
};

template <typename EngineT>
Throughput measure_engine(std::uint64_t target_events) {
  EngineT eng;
  ChurnDriver<EngineT> driver(eng, target_events);
  driver.start(64);
  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  const auto t1 = std::chrono::steady_clock::now();
  Throughput t;
  t.events = eng.events_fired();
  t.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return t;
}

// ---------------------------------------------------------------------------
// Batch-runner wall-time: the Figure 8 cell shape, serial vs parallel.
// ---------------------------------------------------------------------------

std::vector<harness::ScalingRunConfig> sweep_configs(bool full) {
  std::vector<harness::ScalingRunConfig> cfgs;
  for (const harness::Manager mgr :
       {harness::Manager::kHpmmap, harness::Manager::kThp}) {
    harness::ScalingRunConfig cfg;
    cfg.app = "HPCCG";
    cfg.manager = mgr;
    cfg.commodity = workloads::profile_c();
    cfg.nodes = 8;
    cfg.ranks_per_node = 4;
    cfg.seed = 529;
    cfg.footprint_scale = 1.0;
    cfg.duration_scale = full ? 0.25 : 0.02;
    cfgs.push_back(cfg);
  }
  return cfgs;
}

struct BatchTiming {
  double wall_seconds = 0.0;
  std::vector<harness::SeriesPoint> points;
};

BatchTiming time_sweep(const std::vector<harness::ScalingRunConfig>& cfgs,
                       std::uint32_t trials, unsigned jobs) {
  BatchTiming t;
  const auto t0 = std::chrono::steady_clock::now();
  t.points = harness::run_trials_batch(cfgs, trials, jobs);
  t.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return t;
}

bool identical(const std::vector<harness::SeriesPoint>& a,
               const std::vector<harness::SeriesPoint>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bitwise comparison: the determinism contract is byte-identity, not
    // approximate equality.
    if (std::memcmp(&a[i].mean_seconds, &b[i].mean_seconds, sizeof(double)) != 0 ||
        std::memcmp(&a[i].stdev_seconds, &b[i].stdev_seconds, sizeof(double)) != 0 ||
        a[i].trials != b[i].trials || a[i].events != b[i].events) {
      return false;
    }
  }
  return true;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

} // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_mode(opt, "Engine + batch-runner throughput (JSON self-report)");

  // --- engine hot path: current vs embedded-baseline implementation ---
  const std::uint64_t target = opt.full ? 10'000'000 : 2'000'000;
  // Warm both allocators once so first-touch noise lands outside timing.
  (void)measure_engine<sim::Engine>(target / 20);
  (void)measure_engine<legacy::Engine>(target / 20);
  const Throughput current = measure_engine<sim::Engine>(target);
  const Throughput baseline = measure_engine<legacy::Engine>(target);
  const double ratio = baseline.events_per_sec() > 0
                           ? current.events_per_sec() / baseline.events_per_sec()
                           : 0.0;
  std::printf("engine:   %10.0f events/sec  (%llu events, %.3f s wall)\n",
              current.events_per_sec(),
              static_cast<unsigned long long>(current.events), current.wall_seconds);
  std::printf("baseline: %10.0f events/sec  (std::function + priority_queue + "
              "tombstones)\n",
              baseline.events_per_sec());
  std::printf("improvement: %.2fx\n\n", ratio);

  std::string ej;
  ej += "{\n";
  ej += "  \"bench\": \"engine_throughput\",\n";
  ej += "  \"workload\": \"64 self-rescheduling actors, 1-in-4 cancel churn\",\n";
  ej += "  \"events\": " + std::to_string(current.events) + ",\n";
  ej += "  \"wall_seconds\": " + num(current.wall_seconds) + ",\n";
  ej += "  \"events_per_sec\": " + num(current.events_per_sec()) + ",\n";
  ej += "  \"baseline\": {\n";
  ej += "    \"impl\": \"std::function + std::priority_queue + tombstone set "
        "(pre-optimization engine, measured live)\",\n";
  ej += "    \"events\": " + std::to_string(baseline.events) + ",\n";
  ej += "    \"wall_seconds\": " + num(baseline.wall_seconds) + ",\n";
  ej += "    \"events_per_sec\": " + num(baseline.events_per_sec()) + "\n";
  ej += "  },\n";
  ej += "  \"improvement_ratio\": " + num(ratio) + "\n";
  ej += "}\n";
  if (!bench::write_bench_json(opt, "BENCH_engine.json", ej)) {
    return 1;
  }

  // --- batch runner: serial vs parallel wall-time on a fig8-shaped sweep ---
  const unsigned jobs = opt.jobs == 0 ? harness::hardware_jobs() : opt.jobs;
  const std::uint32_t trials = 4;
  const std::vector<harness::ScalingRunConfig> cfgs = sweep_configs(opt.full);
  const BatchTiming serial = time_sweep(cfgs, trials, 1);
  const BatchTiming par = time_sweep(cfgs, trials, jobs);
  const bool match = identical(serial.points, par.points);
  const double speedup =
      par.wall_seconds > 0 ? serial.wall_seconds / par.wall_seconds : 0.0;
  std::printf("batch:    %zu tasks  jobs=1 %.3f s   jobs=%u %.3f s   speedup "
              "%.2fx   identical=%s\n",
              cfgs.size() * trials, serial.wall_seconds, jobs, par.wall_seconds,
              speedup, match ? "yes" : "NO");

  std::string bj;
  bj += "{\n";
  bj += "  \"bench\": \"batch_runner\",\n";
  bj += "  \"sweep\": \"HPCCG profile C, 8 nodes, HPMMAP vs THP\",\n";
  bj += "  \"tasks\": " + std::to_string(cfgs.size() * trials) + ",\n";
  bj += "  \"trials_per_config\": " + std::to_string(trials) + ",\n";
  bj += "  \"wall_seconds_jobs1\": " + num(serial.wall_seconds) + ",\n";
  bj += "  \"wall_seconds_jobsN\": " + num(par.wall_seconds) + ",\n";
  bj += "  \"jobs\": " + std::to_string(jobs) + ",\n";
  bj += "  \"speedup\": " +
        (bench::speedup_measured(jobs) ? num(speedup) : std::string("null")) + ",\n";
  bj += "  \"hardware_concurrency\": " + std::to_string(harness::hardware_jobs()) +
        ",\n";
  bj += std::string("  \"deterministic_match\": ") + (match ? "true" : "false") +
        "\n";
  bj += "}\n";
  if (!bench::write_bench_json(opt, "BENCH_batch.json", bj)) {
    return 1;
  }
  return match ? 0 : 1;
}
