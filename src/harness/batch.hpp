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
//
// On BatchRunner sit the harness's only combinators, templates over the
// config type of any run shape: run_batch (one full result per config),
// run_trials (one SeriesPoint per config over its trial_configs) and
// run_trials_snapshotted (the same points, each shared world aged once).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/experiment.hpp"

namespace hpmmap::harness {

/// max(1, std::thread::hardware_concurrency).
[[nodiscard]] unsigned hardware_jobs() noexcept;

/// Process-wide default parallelism: the jobs default of the
/// combinators below. 0 = hardware_jobs(). The library default is 1 (serial)
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

/// The seed sequence the trial loops feed trial t — the serial recurrence
/// s_{t+1} = s_t * 2654435761 + t + 1, precomputed so trials can run on
/// any thread and still merge byte-identically in t order.
[[nodiscard]] std::vector<std::uint64_t> trial_seeds(std::uint64_t base,
                                                     std::uint32_t trials);

namespace detail {

/// Each shape's primitives under one name, for the combinators below.
inline RunResult dispatch(const SingleNodeRunConfig& c) { return run_single_node(c); }
inline ServerRunResult dispatch(const ServerRunConfig& c) { return run_server(c); }
inline SmpRunResult dispatch(const SmpRunConfig& c) { return run_smp(c); }
inline RunResult dispatch(const ClusterRunConfig& c) { return run_cluster(c); }
inline RunResult dispatch(const SingleNodeRunConfig& c, const snapshot::WorldImage& image) {
  return run_single_node(c, image);
}
inline RunResult dispatch(const ClusterRunConfig& c, const ClusterImage& image) {
  return run_cluster(c, image);
}
inline snapshot::WorldImage capture_dispatch(const SingleNodeRunConfig& c) {
  return capture_single_node(c);
}
inline ClusterImage capture_dispatch(const ClusterRunConfig& c) {
  return capture_scaling(c.scaling);
}

/// The seed field of any shape's config.
template <typename Config>
auto& seed_of(Config& c) {
  if constexpr (std::is_same_v<std::remove_const_t<Config>, ClusterRunConfig>) {
    return c.scaling.seed;
  } else {
    return c.seed;
  }
}

[[nodiscard]] bool same_verify(const VerifyConfig& a, const VerifyConfig& b);

/// Two configs shape the same pre-measurement world iff every field that
/// acts before the job launches matches (the snapshot contract in
/// experiment.hpp); a cluster also pins its node and rank counts.
template <typename Config>
bool same_world(const Config& a, const Config& b) {
  if constexpr (std::is_same_v<Config, ClusterRunConfig>) {
    return a.scaling.nodes == b.scaling.nodes &&
           a.scaling.ranks_per_node == b.scaling.ranks_per_node &&
           same_world(a.scaling, b.scaling);
  } else {
    return a.manager == b.manager && a.commodity.builds == b.commodity.builds &&
           a.commodity.jobs_per_build == b.commodity.jobs_per_build && a.seed == b.seed &&
           a.footprint_scale == b.footprint_scale && a.warmup_seconds == b.warmup_seconds &&
           a.trace.categories == b.trace.categories && a.trace.capacity == b.trace.capacity &&
           same_verify(a.verify, b.verify);
  }
}

/// What one trial contributes to its SeriesPoint.
struct TrialOutcome {
  double runtime_seconds = 0.0;
  std::uint64_t events_fired = 0;
  mm::FaultStats faults{};
};

inline TrialOutcome outcome_of(const RunResult& r) {
  return TrialOutcome{r.runtime_seconds, r.events_fired, r.faults};
}

/// Fold one config's outcomes, in trial order, into its point: every
/// trial loop folds through here, so equal outcomes give equal bits.
[[nodiscard]] SeriesPoint fold_trials(const std::vector<TrialOutcome>& outcomes);

} // namespace detail

/// `config` once per trial, in trial order: trial t runs at seed
/// trial_seeds(seed, trials)[t]. This is every trial loop's seed rule.
template <typename Config>
[[nodiscard]] std::vector<Config> trial_configs(const Config& config, std::uint32_t trials) {
  std::vector<Config> out;
  out.reserve(trials);
  for (const std::uint64_t seed : trial_seeds(detail::seed_of(config), trials)) {
    out.push_back(config);
    detail::seed_of(out.back()) = seed;
  }
  return out;
}

namespace detail {

/// The trial loop behind run_trials and run_trials_snapshotted. Configs
/// for which `same` holds are grouped (first-appearance order); each
/// (group, trial) task ages the group's world once, captures it and
/// resumes every member from the image. Singleton groups run straight —
/// identical output by the resumed-run equality contract, without paying
/// for capture and restore.
template <typename Config, typename SameWorld>
std::vector<SeriesPoint> sweep(const std::vector<Config>& configs, std::uint32_t trials,
                               unsigned jobs, SameWorld same) {
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::vector<Config>> trial_cfgs;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto g = std::find_if(groups.begin(), groups.end(), [&](const auto& group) {
      return same(configs[group.front()], configs[i]);
    });
    if (g == groups.end()) {
      groups.push_back({i});
    } else {
      g->push_back(i);
    }
    trial_cfgs.push_back(trial_configs(configs[i], trials));
  }
  std::vector<std::function<std::vector<TrialOutcome>()>> tasks;
  tasks.reserve(groups.size() * trials);
  for (const std::vector<std::size_t>& g : groups) {
    for (std::uint32_t t = 0; t < trials; ++t) {
      std::vector<Config> members;
      for (const std::size_t i : g) {
        members.push_back(trial_cfgs[i][t]);
      }
      tasks.push_back([members = std::move(members)] {
        std::vector<TrialOutcome> out;
        if (members.size() == 1) {
          out.push_back(outcome_of(dispatch(members.front())));
        } else {
          const auto image = capture_dispatch(members.front());
          for (const Config& member : members) {
            out.push_back(outcome_of(dispatch(member, image)));
          }
        }
        return out;
      });
    }
  }
  const std::vector<std::vector<TrialOutcome>> outcomes = BatchRunner(jobs).map(std::move(tasks));
  // Regroup per config with trials in t order, then fold.
  std::vector<std::vector<TrialOutcome>> per_config(configs.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (std::uint32_t t = 0; t < trials; ++t) {
      for (std::size_t m = 0; m < groups[gi].size(); ++m) {
        per_config[groups[gi][m]].push_back(outcomes[gi * trials + t][m]);
      }
    }
  }
  std::vector<SeriesPoint> points;
  points.reserve(configs.size());
  for (const std::vector<TrialOutcome>& o : per_config) {
    points.push_back(fold_trials(o));
  }
  return points;
}

} // namespace detail

/// One run per config, full results (trace buffers included) in input
/// order, byte-identical for any jobs value (0 = hardware). Any shape:
/// SingleNodeRunConfig, ServerRunConfig, SmpRunConfig, ClusterRunConfig.
template <typename Config>
[[nodiscard]] auto run_batch(const std::vector<Config>& configs,
                             unsigned jobs = default_jobs()) {
  using Result = decltype(detail::dispatch(configs.front()));
  std::vector<std::function<Result()>> tasks;
  tasks.reserve(configs.size());
  for (const Config& config : configs) {
    tasks.push_back([config] { return detail::dispatch(config); });
  }
  return BatchRunner(jobs).map(std::move(tasks));
}

/// One SeriesPoint per config over its trial_configs, parallelized at
/// (config, trial) granularity so a figure sweep keeps every worker busy
/// even with few trials per point. Output order == input order, and the
/// points are byte-identical for any jobs value. SingleNodeRunConfig or
/// ClusterRunConfig.
template <typename Config>
[[nodiscard]] std::vector<SeriesPoint> run_trials(const std::vector<Config>& configs,
                                                  std::uint32_t trials,
                                                  unsigned jobs = default_jobs()) {
  return detail::sweep(configs, trials, jobs, [](const Config&, const Config&) { return false; });
}

/// Amortized-aging sweep (DESIGN.md §12.4): configs that shape the same
/// pre-measurement world (detail::same_world: for one node everything but
/// app, app_cores, duration_scale and introspect; for a cluster everything
/// but app, duration_scale, introspect, topology and cluster_jobs) age
/// that world ONCE per trial seed, and every member resumes from the
/// captured image. Byte-identical to run_trials for any jobs value; an
/// N-member group pays for aging once instead of N times.
template <typename Config>
[[nodiscard]] std::vector<SeriesPoint> run_trials_snapshotted(
    const std::vector<Config>& configs, std::uint32_t trials, unsigned jobs = default_jobs()) {
  return detail::sweep(configs, trials, jobs, detail::same_world<Config>);
}

} // namespace hpmmap::harness
