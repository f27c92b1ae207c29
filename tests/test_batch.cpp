// Unit tests: the parallel batch runner and its determinism contract —
// the merged output of any sweep is byte-identical for every --jobs
// value, because results merge in task order and every trial's seed is
// derived from the config, never from execution order.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <vector>

#include "harness/batch.hpp"
#include "harness/experiment.hpp"
#include "harness/result_fields.hpp"

namespace hpmmap {
namespace {

harness::SingleNodeRunConfig quick_single(harness::Manager mgr, std::uint64_t seed) {
  harness::SingleNodeRunConfig cfg;
  cfg.app = "HPCCG";
  cfg.manager = mgr;
  cfg.commodity = workloads::no_competition();
  cfg.app_cores = 2;
  cfg.seed = seed;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;
  return cfg;
}

harness::ScalingRunConfig quick_scaling(harness::Manager mgr, std::uint32_t nodes) {
  harness::ScalingRunConfig cfg;
  cfg.app = "HPCCG";
  cfg.manager = mgr;
  cfg.commodity = workloads::no_competition();
  cfg.nodes = nodes;
  cfg.ranks_per_node = 2;
  cfg.seed = 500 + nodes;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;
  return cfg;
}

TEST(BatchRunner, HardwareJobsIsPositive) {
  EXPECT_GE(harness::hardware_jobs(), 1u);
  EXPECT_GE(harness::BatchRunner(0).jobs(), 1u);
  EXPECT_EQ(harness::BatchRunner(3).jobs(), 3u);
}

TEST(BatchRunner, EmptyTaskListReturnsEmpty) {
  harness::BatchRunner runner(4);
  EXPECT_TRUE(runner.map(std::vector<std::function<int()>>{}).empty());
}

TEST(BatchRunner, ResultsComeBackInTaskOrder) {
  // 64 tasks finishing in arbitrary order across 4 workers must still
  // land at their submission index.
  std::vector<std::function<int()>> tasks;
  std::atomic<int> spin{0};
  for (int i = 0; i < 64; ++i) {
    tasks.emplace_back([i, &spin] {
      // Uneven work so completion order differs from submission order.
      for (int k = 0; k < (i % 7) * 1000; ++k) {
        spin.fetch_add(1, std::memory_order_relaxed);
      }
      return i * 10;
    });
  }
  const std::vector<int> out = harness::BatchRunner(4).map(std::move(tasks));
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 10);
  }
}

TEST(BatchRunner, LowestIndexExceptionWins) {
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.emplace_back([i]() -> int {
      if (i == 2 || i == 6) {
        throw std::runtime_error("task " + std::to_string(i));
      }
      return i;
    });
  }
  try {
    (void)harness::BatchRunner(4).map(std::move(tasks));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");
  }
}

TEST(BatchRunner, TrialSeedsMatchTheSerialRecurrence) {
  // The documented recurrence the pre-parallel trial loop applied in
  // place: s_{t+1} = s_t * 2654435761 + t + 1.
  const std::vector<std::uint64_t> seeds = harness::trial_seeds(42, 5);
  ASSERT_EQ(seeds.size(), 5u);
  std::uint64_t s = 42;
  for (std::uint32_t t = 0; t < 5; ++t) {
    s = s * 2654435761ull + t + 1; // the serial loop advances before the run
    EXPECT_EQ(seeds[t], s) << "trial " << t;
  }
}

TEST(BatchDeterminism, SingleNodeTrialsIdenticalAcrossJobCounts) {
  const std::vector cfgs{quick_single(harness::Manager::kThp, 11)};
  const harness::SeriesPoint serial = harness::run_trials(cfgs, 3, 1).front();
  const harness::SeriesPoint parallel = harness::run_trials(cfgs, 3, 4).front();
  EXPECT_EQ(harness::first_difference(serial, parallel), std::nullopt);
  EXPECT_GT(serial.mean_seconds, 0.0);
  EXPECT_GT(serial.events, 0u);
}

TEST(BatchDeterminism, ScalingSweepIdenticalAcrossJobCounts) {
  // A miniature Figure 8 sweep: 2 managers x 2 node counts, fanned out at
  // (config, trial) granularity. Byte-identical at 1 and 4 workers.
  std::vector<harness::ClusterRunConfig> cfgs;
  for (const harness::Manager mgr :
       {harness::Manager::kHpmmap, harness::Manager::kThp}) {
    for (const std::uint32_t nodes : {1u, 2u}) {
      cfgs.push_back({quick_scaling(mgr, nodes)});
    }
  }
  const std::vector<harness::SeriesPoint> serial = harness::run_trials(cfgs, 2, 1);
  const std::vector<harness::SeriesPoint> parallel = harness::run_trials(cfgs, 2, 4);
  ASSERT_EQ(serial.size(), cfgs.size());
  ASSERT_EQ(parallel.size(), cfgs.size());
  EXPECT_EQ(harness::first_difference(serial, parallel), std::nullopt);
  for (const harness::SeriesPoint& p : serial) {
    EXPECT_GT(p.mean_seconds, 0.0);
  }
}

TEST(BatchDeterminism, DefaultJobsRoutesThroughTheSameSeeds) {
  // run_trials(configs, trials) at whatever default_jobs() is set to
  // must agree with an explicitly serial call.
  const std::vector cfgs{quick_single(harness::Manager::kHpmmap, 23)};
  const unsigned saved = harness::default_jobs();
  harness::set_default_jobs(4);
  const harness::SeriesPoint via_default = harness::run_trials(cfgs, 2).front();
  harness::set_default_jobs(saved == 0 ? 1 : saved);
  const harness::SeriesPoint serial = harness::run_trials(cfgs, 2, 1).front();
  EXPECT_EQ(harness::first_difference(via_default, serial), std::nullopt);
}

TEST(BatchRunner, RunBatchReturnsFullResultsInOrder) {
  std::vector<harness::SingleNodeRunConfig> cfgs;
  cfgs.push_back(quick_single(harness::Manager::kThp, 31));
  cfgs.push_back(quick_single(harness::Manager::kHpmmap, 32));
  const std::vector<harness::RunResult> results = harness::run_batch(cfgs, 2);
  ASSERT_EQ(results.size(), 2u);
  for (const harness::RunResult& r : results) {
    EXPECT_GT(r.runtime_seconds, 0.0);
    EXPECT_GT(r.events_fired, 0u);
  }
}

} // namespace
} // namespace hpmmap
