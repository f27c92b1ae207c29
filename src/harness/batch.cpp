#include "harness/batch.hpp"

#include <algorithm>
#include <span>

#include "harness/cluster.hpp"
#include "harness/detail.hpp"

namespace hpmmap::harness {

namespace {

using detail::TrialOutcome;

std::atomic<unsigned> g_default_jobs{1};

/// Scaling configs run on per-node engines at one worker: the batch pool
/// already spreads tasks over the cores, so pools are never nested.
template <typename Config>
RunResult dispatch(const Config& cfg) {
  if constexpr (std::is_same_v<Config, SingleNodeRunConfig>) {
    return run_single_node(cfg);
  } else {
    return run_cluster(ClusterRunConfig{cfg});
  }
}

template <typename Config>
std::vector<SeriesPoint> trials_batch(const std::vector<Config>& configs,
                                      std::uint32_t trials, unsigned jobs) {
  std::vector<std::function<TrialOutcome()>> tasks;
  tasks.reserve(configs.size() * trials);
  for (const Config& cfg : configs) {
    for (const std::uint64_t seed : trial_seeds(cfg.seed, trials)) {
      Config trial_cfg = cfg;
      trial_cfg.seed = seed;
      tasks.push_back([trial_cfg] { return detail::outcome_of(dispatch(trial_cfg)); });
    }
  }
  const std::vector<TrialOutcome> outcomes = BatchRunner(jobs).map(std::move(tasks));
  std::vector<SeriesPoint> points;
  points.reserve(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    points.push_back(
        detail::fold_trials(std::span(outcomes).subspan(c * trials, trials)));
  }
  return points;
}

bool same_verify(const VerifyConfig& a, const VerifyConfig& b) {
  for (std::size_t i = 0; i < verify::kInjectPointCount; ++i) {
    const verify::PointPlan& p = a.inject.points[i];
    const verify::PointPlan& q = b.inject.points[i];
    if (p.first != q.first || p.period != q.period || p.count != q.count ||
        p.probability != q.probability || p.magnitude != q.magnitude) {
      return false;
    }
  }
  return a.audit == b.audit && a.audit_on_injection == b.audit_on_injection;
}

/// Two single-node configs shape the same pre-measurement world iff
/// every field that acts before the job launches matches (the snapshot
/// contract in experiment.hpp); app, app_cores, duration_scale and
/// introspect only matter after the warmup capture point.
bool same_world(const SingleNodeRunConfig& a, const SingleNodeRunConfig& b) {
  return a.manager == b.manager && a.commodity.builds == b.commodity.builds &&
         a.commodity.jobs_per_build == b.commodity.jobs_per_build &&
         a.seed == b.seed && a.footprint_scale == b.footprint_scale &&
         a.warmup_seconds == b.warmup_seconds &&
         a.trace.categories == b.trace.categories &&
         a.trace.capacity == b.trace.capacity && same_verify(a.verify, b.verify);
}

/// Scaling runs additionally pin the cluster shape; only app and
/// duration_scale act after the capture point (the ranks launch into an
/// already-aged cluster), so those are the free measurement knobs.
bool same_world(const ScalingRunConfig& a, const ScalingRunConfig& b) {
  return a.manager == b.manager && a.commodity.builds == b.commodity.builds &&
         a.commodity.jobs_per_build == b.commodity.jobs_per_build &&
         a.nodes == b.nodes && a.ranks_per_node == b.ranks_per_node &&
         a.seed == b.seed && a.footprint_scale == b.footprint_scale &&
         a.warmup_seconds == b.warmup_seconds &&
         a.trace.categories == b.trace.categories &&
         a.trace.capacity == b.trace.capacity && same_verify(a.verify, b.verify);
}

template <typename Config>
auto capture_dispatch(const Config& cfg) {
  if constexpr (std::is_same_v<Config, SingleNodeRunConfig>) {
    return capture_single_node(cfg);
  } else {
    return capture_scaling(cfg);
  }
}

template <typename Config, typename Image>
RunResult dispatch(const Config& cfg, const Image& image) {
  if constexpr (std::is_same_v<Config, SingleNodeRunConfig>) {
    return run_single_node(cfg, image);
  } else {
    return run_cluster(ClusterRunConfig{cfg}, image);
  }
}

template <typename Config>
std::vector<SeriesPoint> trials_snapshotted(const std::vector<Config>& configs,
                                            std::uint32_t trials, unsigned jobs) {
  // Group configs sharing a pre-measurement world, first-appearance order.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    bool placed = false;
    for (std::vector<std::size_t>& g : groups) {
      if (same_world(configs[g.front()], configs[i])) {
        g.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) {
      groups.push_back({i});
    }
  }
  // One task per (group, trial): age once, capture, resume every member.
  // Singleton groups run straight — identical output by the resumed-run
  // equality contract, without paying for capture + restore.
  std::vector<std::function<std::vector<TrialOutcome>()>> tasks;
  tasks.reserve(groups.size() * trials);
  for (const std::vector<std::size_t>& g : groups) {
    for (std::uint32_t t = 0; t < trials; ++t) {
      std::vector<Config> members;
      members.reserve(g.size());
      for (const std::size_t idx : g) {
        Config cfg = configs[idx];
        cfg.seed = trial_seeds(cfg.seed, trials)[t];
        members.push_back(std::move(cfg));
      }
      tasks.push_back([members]() {
        std::vector<TrialOutcome> out;
        out.reserve(members.size());
        if (members.size() == 1) {
          out.push_back(detail::outcome_of(dispatch(members.front())));
        } else {
          const auto image = capture_dispatch(members.front());
          for (const Config& cfg : members) {
            out.push_back(detail::outcome_of(dispatch(cfg, image)));
          }
        }
        return out;
      });
    }
  }
  const std::vector<std::vector<TrialOutcome>> outcomes =
      BatchRunner(jobs).map(std::move(tasks));
  // Regroup per config with trials in t order — the fold run_trials_batch
  // uses, so the points match bit for bit.
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
    points.push_back(detail::fold_trials(o));
  }
  return points;
}

template <typename Config>
std::vector<RunResult> batch(const std::vector<Config>& configs, unsigned jobs) {
  std::vector<std::function<RunResult()>> tasks;
  tasks.reserve(configs.size());
  for (const Config& cfg : configs) {
    tasks.push_back([cfg] { return dispatch(cfg); });
  }
  return BatchRunner(jobs).map(std::move(tasks));
}

} // namespace

unsigned hardware_jobs() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void set_default_jobs(unsigned jobs) noexcept {
  g_default_jobs.store(jobs == 0 ? hardware_jobs() : jobs, std::memory_order_relaxed);
}

unsigned default_jobs() noexcept {
  return g_default_jobs.load(std::memory_order_relaxed);
}

std::vector<std::uint64_t> trial_seeds(std::uint64_t base, std::uint32_t trials) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(trials);
  std::uint64_t s = base;
  for (std::uint32_t t = 0; t < trials; ++t) {
    s = s * 2654435761ull + t + 1;
    seeds.push_back(s);
  }
  return seeds;
}

SeriesPoint run_trials(SingleNodeRunConfig config, std::uint32_t trials, unsigned jobs) {
  return trials_batch(std::vector<SingleNodeRunConfig>{std::move(config)}, trials,
                      jobs)[0];
}

SeriesPoint run_trials(ScalingRunConfig config, std::uint32_t trials, unsigned jobs) {
  return trials_batch(std::vector<ScalingRunConfig>{std::move(config)}, trials, jobs)[0];
}

std::vector<SeriesPoint> run_trials_batch(const std::vector<SingleNodeRunConfig>& configs,
                                          std::uint32_t trials, unsigned jobs) {
  return trials_batch(configs, trials, jobs);
}

std::vector<SeriesPoint> run_trials_batch(const std::vector<ScalingRunConfig>& configs,
                                          std::uint32_t trials, unsigned jobs) {
  return trials_batch(configs, trials, jobs);
}

std::vector<RunResult> run_batch(const std::vector<SingleNodeRunConfig>& configs,
                                 unsigned jobs) {
  return batch(configs, jobs);
}

std::vector<RunResult> run_batch(const std::vector<ScalingRunConfig>& configs,
                                 unsigned jobs) {
  return batch(configs, jobs);
}

std::vector<ServerRunResult> run_server_trials(const ServerRunConfig& config,
                                               std::uint32_t trials, unsigned jobs) {
  std::vector<std::function<ServerRunResult()>> tasks;
  tasks.reserve(trials);
  for (const std::uint64_t seed : trial_seeds(config.seed, trials)) {
    ServerRunConfig trial_cfg = config;
    trial_cfg.seed = seed;
    tasks.push_back([trial_cfg] { return run_server(trial_cfg); });
  }
  return BatchRunner(jobs).map(std::move(tasks));
}

std::vector<SeriesPoint> run_trials_snapshotted(
    const std::vector<SingleNodeRunConfig>& configs, std::uint32_t trials,
    unsigned jobs) {
  return trials_snapshotted(configs, trials, jobs);
}

std::vector<SeriesPoint> run_trials_snapshotted(
    const std::vector<ScalingRunConfig>& configs, std::uint32_t trials,
    unsigned jobs) {
  return trials_snapshotted(configs, trials, jobs);
}

std::vector<ServerRunResult> run_server_trials_resumed(const ServerRunConfig& config,
                                                       std::uint32_t trials,
                                                       unsigned jobs) {
  std::vector<std::function<ServerRunResult()>> tasks;
  tasks.reserve(trials);
  for (const std::uint64_t seed : trial_seeds(config.seed, trials)) {
    ServerRunConfig trial_cfg = config;
    trial_cfg.seed = seed;
    tasks.push_back([trial_cfg] {
      const snapshot::WorldImage image = capture_server(trial_cfg);
      return run_server(trial_cfg, image);
    });
  }
  return BatchRunner(jobs).map(std::move(tasks));
}

std::vector<ServerRunResult> run_server_batch(const std::vector<ServerRunConfig>& configs,
                                              unsigned jobs) {
  std::vector<std::function<ServerRunResult()>> tasks;
  tasks.reserve(configs.size());
  for (const ServerRunConfig& cfg : configs) {
    tasks.push_back([cfg] { return run_server(cfg); });
  }
  return BatchRunner(jobs).map(std::move(tasks));
}

} // namespace hpmmap::harness
