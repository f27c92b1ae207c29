// Parallel batch execution for independent simulation runs.
//
// The paper's evaluation is a pile of embarrassingly parallel sweeps —
// Figure 7's co-location grid, Figure 8's 8-node scaling runs, the
// ablation matrices, multi-seed trial loops — yet each simulation is
// strictly single-threaded. BatchRunner fans independent RunConfigs out
// across a fixed worker pool; every run binds the thread-local run
// context (trace registry, metric registry, fault injector, engine
// clock) of the worker it lands on, so runs never share mutable state.
//
// Determinism contract: results are merged in task-submission (seed)
// order, and every task derives its RNG stream from its own config —
// the merged output is byte-identical for any --jobs value, including 1.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"

namespace hpmmap::harness {

/// max(1, std::thread::hardware_concurrency).
[[nodiscard]] unsigned hardware_jobs() noexcept;

/// Process-wide default parallelism: the jobs default of run_trials and
/// run_smp_batch. 0 = hardware_jobs(). The library default is 1 (serial)
/// so embedders opt in; the CLI tools set it from --jobs (whose own
/// default is the hardware concurrency).
void set_default_jobs(unsigned jobs) noexcept;
[[nodiscard]] unsigned default_jobs() noexcept;

class BatchRunner {
 public:
  /// `jobs` == 0 selects hardware_jobs().
  explicit BatchRunner(unsigned jobs = 0)
      : jobs_(jobs == 0 ? hardware_jobs() : jobs) {}

  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }

  /// Run every task on the pool and return the results in task order
  /// (never completion order). The calling thread participates as a
  /// worker. The first task exception (lowest task index) is rethrown
  /// after the pool drains.
  template <typename R>
  std::vector<R> map(std::vector<std::function<R()>> tasks) {
    std::vector<R> results(tasks.size());
    if (tasks.empty()) {
      return results;
    }
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, tasks.size()));
    std::vector<std::exception_ptr> errors(tasks.size());
    if (workers <= 1) {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        run_one(tasks, results, errors, i);
      }
    } else {
      std::atomic<std::size_t> next{0};
      const auto drain = [&]() noexcept {
        for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) <
                            tasks.size();) {
          run_one(tasks, results, errors, i);
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(workers - 1);
      for (unsigned w = 1; w < workers; ++w) {
        pool.emplace_back(drain);
      }
      drain();
      for (std::thread& t : pool) {
        t.join();
      }
    }
    for (std::exception_ptr& err : errors) {
      if (err) {
        std::rethrow_exception(err);
      }
    }
    return results;
  }

 private:
  template <typename R>
  static void run_one(std::vector<std::function<R()>>& tasks, std::vector<R>& results,
                      std::vector<std::exception_ptr>& errors, std::size_t i) {
    try {
      results[i] = tasks[i]();
    } catch (...) {
      errors[i] = std::current_exception();
    }
  }

  unsigned jobs_;
};

/// The seed sequence run_trials feeds trial t — the serial recurrence
/// s_{t+1} = s_t * 2654435761 + t + 1, precomputed so trials can run on
/// any thread and still merge byte-identically in t order.
[[nodiscard]] std::vector<std::uint64_t> trial_seeds(std::uint64_t base,
                                                     std::uint32_t trials);

/// Trial loops over trial_seeds(config.seed, trials): byte-identical
/// points for every jobs value (0 = hardware).
[[nodiscard]] SeriesPoint run_trials(SingleNodeRunConfig config, std::uint32_t trials,
                                     unsigned jobs = default_jobs());
[[nodiscard]] SeriesPoint run_trials(ScalingRunConfig config, std::uint32_t trials,
                                     unsigned jobs = default_jobs());

/// Whole-sweep fan-out: one SeriesPoint per config, parallelized at
/// (config, trial) granularity so a figure sweep keeps every worker busy
/// even with few trials per point. Output order == input order.
[[nodiscard]] std::vector<SeriesPoint> run_trials_batch(
    const std::vector<SingleNodeRunConfig>& configs, std::uint32_t trials,
    unsigned jobs = 0);
[[nodiscard]] std::vector<SeriesPoint> run_trials_batch(
    const std::vector<ScalingRunConfig>& configs, std::uint32_t trials,
    unsigned jobs = 0);

/// Fan a heterogeneous config list out one-run-per-task; full RunResults
/// (trace buffers included) in input order.
[[nodiscard]] std::vector<RunResult> run_batch(
    const std::vector<SingleNodeRunConfig>& configs, unsigned jobs = 0);
[[nodiscard]] std::vector<RunResult> run_batch(
    const std::vector<ScalingRunConfig>& configs, unsigned jobs = 0);

/// Serving runs fan out the same way: full per-trial results in
/// (config, trial-seed) submission order, byte-identical for any jobs
/// value. Trial t of config c uses trial_seeds(c.seed, trials)[t].
[[nodiscard]] std::vector<ServerRunResult> run_server_trials(
    const ServerRunConfig& config, std::uint32_t trials, unsigned jobs = 0);

/// Amortized-aging sweep (DESIGN.md §12): configs that shape the same
/// pre-measurement world — everything matching except app, app_cores,
/// duration_scale and introspect — are grouped, each group's world is
/// aged ONCE per trial seed and captured, and every member resumes from
/// the captured image for its measurement phase. Singleton groups run
/// straight. Byte-identical SeriesPoints to run_trials_batch for any
/// jobs value; an N-member group pays for aging once instead of N times.
[[nodiscard]] std::vector<SeriesPoint> run_trials_snapshotted(
    const std::vector<SingleNodeRunConfig>& configs, std::uint32_t trials,
    unsigned jobs = 0);
/// Scaling flavour: configs matching in everything but app and
/// duration_scale share one aged cluster per trial (nodes, ranks_per_node
/// and the cluster seed pin the world shape).
[[nodiscard]] std::vector<SeriesPoint> run_trials_snapshotted(
    const std::vector<ScalingRunConfig>& configs, std::uint32_t trials,
    unsigned jobs = 0);

/// run_server_trials through the snapshot path: each trial captures its
/// world at the warmup point and resumes it for measurement. Results are
/// byte-identical to run_server_trials — the equality the serving
/// snapshot test pins.
[[nodiscard]] std::vector<ServerRunResult> run_server_trials_resumed(
    const ServerRunConfig& config, std::uint32_t trials, unsigned jobs = 0);
[[nodiscard]] std::vector<ServerRunResult> run_server_batch(
    const std::vector<ServerRunConfig>& configs, unsigned jobs = 0);

} // namespace hpmmap::harness
