#include "harness/batch.hpp"

namespace hpmmap::harness {

namespace {

std::atomic<unsigned> g_default_jobs{1};

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

bool detail::same_verify(const VerifyConfig& a, const VerifyConfig& b) {
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

SeriesPoint detail::fold_trials(const std::vector<TrialOutcome>& outcomes) {
  RunningStats stats;
  SeriesPoint point;
  for (const TrialOutcome& o : outcomes) {
    stats.add(o.runtime_seconds);
    point.events += o.events_fired;
    for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
      point.fault_counts[k] += o.faults.count[k];
      point.fault_cycles[k] += o.faults.total_cycles[k];
    }
  }
  point.mean_seconds = stats.mean();
  point.stdev_seconds = stats.stdev();
  point.trials = static_cast<std::uint32_t>(outcomes.size());
  return point;
}

} // namespace hpmmap::harness
