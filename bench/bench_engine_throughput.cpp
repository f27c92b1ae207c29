// Engine + batch-runner throughput, self-reported as JSON.
//
// Two measurements, two files (under --out-dir, default ./results):
//
//   BENCH_engine.json — raw event-loop throughput (events/sec) of
//   sim::Engine on a self-rescheduling actor workload with cancel churn.
//   After a warmup the loop is timed bench::kTimedRuns times; the median
//   is `events_per_sec`, with the min and max beside it. It is host time,
//   so it is compared only against another build run on the same host:
//   CI's bench-smoke job builds the base commit and gates this key with
//   bench_diff.
//
//   BENCH_batch.json — wall-time of a Figure-8-shaped sweep (2 managers
//   x 4 trials of 8-node HPCCG under profile C) through the batch runner
//   at --jobs 1 vs --jobs N, with a byte-identity self-check on the two
//   result sets; `speedup` is null unless bench::speedup_measured(jobs).
//
// Usage: bench_engine_throughput [--full] [--jobs N] [--out-dir DIR]
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"
#include "harness/batch.hpp"
#include "harness/experiment.hpp"
#include "harness/result_fields.hpp"
#include "sim/engine.hpp"

namespace {

using namespace hpmmap;

// ---------------------------------------------------------------------------
// Workload: kActors self-rescheduling actors with deterministic xorshift
// delays; every 4th firing schedules a decoy event and immediately cancels
// it. This is the shape of the simulator's real load (compute-burst
// reschedules + timer cancellations), the traffic the engine serves in
// the figures.
// ---------------------------------------------------------------------------

class ChurnDriver {
 public:
  ChurnDriver(sim::Engine& eng, std::uint64_t target) : eng_(eng), target_(target) {}

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

  sim::Engine& eng_;
  std::uint64_t target_;
  std::uint64_t done_ = 0;
  std::uint64_t stray_ = 0;
  std::uint64_t rng_ = 0x243F6A8885A308D3ull;
};

/// Events per host second of one churn run of `target_events` steps.
double measure_engine(std::uint64_t target_events) {
  sim::Engine eng;
  ChurnDriver driver(eng, target_events);
  driver.start(64);
  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return static_cast<double>(eng.events_fired()) / wall;
}

// ---------------------------------------------------------------------------
// Batch-runner wall-time: the Figure 8 cell shape, serial vs parallel.
// ---------------------------------------------------------------------------

std::vector<harness::ClusterRunConfig> sweep_configs(bool full) {
  std::vector<harness::ClusterRunConfig> cfgs;
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
    cfgs.push_back({cfg});
  }
  return cfgs;
}

struct BatchTiming {
  double wall_seconds = 0.0;
  std::vector<harness::SeriesPoint> points;
};

BatchTiming time_sweep(const std::vector<harness::ClusterRunConfig>& cfgs,
                       std::uint32_t trials, unsigned jobs) {
  BatchTiming t;
  const auto t0 = std::chrono::steady_clock::now();
  t.points = harness::run_trials(cfgs, trials, jobs);
  t.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return t;
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

  // --- engine hot path ---
  const std::uint64_t target = opt.full ? 10'000'000 : 2'000'000;
  // Warm the allocator once so first-touch noise lands outside timing.
  (void)measure_engine(target / 20);
  std::vector<double> rates;
  for (int r = 0; r < bench::kTimedRuns; ++r) {
    rates.push_back(measure_engine(target));
  }
  const bench::Spread rate = bench::spread(rates);
  std::printf("engine: %10.0f events/sec median of %d (min %.0f, max %.0f; %llu events)\n\n",
              rate.median, bench::kTimedRuns, rate.min, rate.max,
              static_cast<unsigned long long>(target));

  std::string ej;
  ej += "{\n";
  ej += "  \"bench\": \"engine_throughput\",\n";
  ej += "  \"workload\": \"64 self-rescheduling actors, 1-in-4 cancel churn\",\n";
  ej += "  \"events\": " + std::to_string(target) + ",\n";
  ej += "  \"runs\": " + std::to_string(bench::kTimedRuns) + ",\n";
  ej += "  \"events_per_sec\": " + num(rate.median) + ",\n";
  ej += "  \"events_per_sec_min\": " + num(rate.min) + ",\n";
  ej += "  \"events_per_sec_max\": " + num(rate.max) + "\n";
  ej += "}\n";
  if (!bench::write_bench_json(opt, "BENCH_engine.json", ej)) {
    return 1;
  }

  // --- batch runner: serial vs parallel wall-time on a fig8-shaped sweep ---
  const unsigned jobs = opt.jobs == 0 ? harness::hardware_jobs() : opt.jobs;
  const std::uint32_t trials = 4;
  const std::vector<harness::ClusterRunConfig> cfgs = sweep_configs(opt.full);
  const BatchTiming serial = time_sweep(cfgs, trials, 1);
  const BatchTiming par = time_sweep(cfgs, trials, jobs);
  const bool match = !harness::first_difference(serial.points, par.points);
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
