// The fault injector: deterministic schedules fire at exactly the
// planned call indices, probabilistic schedules replay under the same
// seed, the --inject spec parser round-trips, and every injection point
// degrades gracefully inside a full harness run — fallback counters move,
// nothing crashes, and the auditor stays clean throughout.
#include <gtest/gtest.h>

#include <vector>

#include "harness/cluster.hpp"
#include "harness/experiment.hpp"
#include "verify/audit.hpp"
#include "verify/fault_inject.hpp"

namespace hpmmap::verify {
namespace {

/// Every test arms the process-global injector; always disarm on exit so
/// a failing assertion cannot leak an armed plan into the next test.
class InjectionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    injector().set_on_fire(nullptr);
    injector().disarm();
  }
};

harness::SingleNodeRunConfig quick_thp() {
  harness::SingleNodeRunConfig cfg;
  cfg.app = "HPCCG";
  cfg.manager = harness::Manager::kThp;
  cfg.commodity = workloads::profile_a(2);
  cfg.app_cores = 2;
  cfg.seed = 7;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;
  cfg.verify.audit = true;
  return cfg;
}

TEST_F(InjectionTest, DeterministicScheduleFiresAtExactCalls) {
  InjectionPlan plan;
  plan[InjectPoint::kBuddyAlloc] = PointPlan{/*first=*/3, /*period=*/2, /*count=*/3};
  injector().arm(plan, 1);
  std::vector<std::uint64_t> fired_at;
  for (std::uint64_t call = 1; call <= 12; ++call) {
    if (injector().should_fail(InjectPoint::kBuddyAlloc)) {
      fired_at.push_back(call);
    }
  }
  EXPECT_EQ(fired_at, (std::vector<std::uint64_t>{3, 5, 7})); // count caps at 3
  EXPECT_EQ(injector().stats(InjectPoint::kBuddyAlloc).calls, 12u);
  EXPECT_EQ(injector().stats(InjectPoint::kBuddyAlloc).fired, 3u);
  EXPECT_EQ(injector().total_fired(), 3u);
}

TEST_F(InjectionTest, SingleShotFiresOnce) {
  InjectionPlan plan;
  plan[InjectPoint::kHugetlbAlloc] = PointPlan{/*first=*/1};
  injector().arm(plan, 1);
  EXPECT_TRUE(injector().should_fail(InjectPoint::kHugetlbAlloc));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector().should_fail(InjectPoint::kHugetlbAlloc));
  }
}

TEST_F(InjectionTest, PointsAreIndependent) {
  InjectionPlan plan;
  plan[InjectPoint::kThpHugeAlloc] = PointPlan{/*first=*/2};
  injector().arm(plan, 1);
  EXPECT_FALSE(injector().should_fail(InjectPoint::kBuddyAlloc)); // not planned
  EXPECT_FALSE(injector().should_fail(InjectPoint::kThpHugeAlloc)); // call 1
  EXPECT_TRUE(injector().should_fail(InjectPoint::kThpHugeAlloc));  // call 2
  EXPECT_EQ(injector().stats(InjectPoint::kBuddyAlloc).fired, 0u);
}

TEST_F(InjectionTest, DisarmedInjectorNeverFires) {
  InjectionPlan plan;
  plan[InjectPoint::kBuddyAlloc] = PointPlan{/*first=*/1, /*period=*/1, /*count=*/1000};
  injector().arm(plan, 1);
  injector().disarm();
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(injector().should_fail(InjectPoint::kBuddyAlloc));
  }
  EXPECT_EQ(injector().stats(InjectPoint::kBuddyAlloc).calls, 0u); // not even counted
}

TEST_F(InjectionTest, ProbabilisticModeReplaysUnderSameSeed) {
  InjectionPlan plan;
  plan[InjectPoint::kNetDelay] = PointPlan{0, 0, /*count=*/1000, /*probability=*/0.3};
  const auto pattern = [&](std::uint64_t seed) {
    injector().arm(plan, seed);
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      fires.push_back(injector().should_fail(InjectPoint::kNetDelay));
    }
    return fires;
  };
  const auto a = pattern(42), b = pattern(42), c = pattern(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c); // different seed, different stream (w.h.p.)
  const auto fired = static_cast<double>(injector().stats(InjectPoint::kNetDelay).fired);
  EXPECT_GT(fired, 200 * 0.3 * 0.5); // roughly the asked-for rate
  EXPECT_LT(fired, 200 * 0.3 * 1.5);
}

TEST_F(InjectionTest, OnFireHookSeesEveryFire) {
  InjectionPlan plan;
  plan[InjectPoint::kDirectReclaim] = PointPlan{/*first=*/2, /*period=*/3, /*count=*/4};
  injector().arm(plan, 1);
  std::vector<InjectPoint> seen;
  injector().set_on_fire([&](InjectPoint p) { seen.push_back(p); });
  for (int i = 0; i < 20; ++i) {
    (void)injector().should_fail(InjectPoint::kDirectReclaim);
  }
  EXPECT_EQ(seen.size(), 4u);
  for (const InjectPoint p : seen) {
    EXPECT_EQ(p, InjectPoint::kDirectReclaim);
  }
}

// --- spec parser ---------------------------------------------------------

TEST(InjectSpec, ParsesDeterministicEntry) {
  const auto plan = parse_inject_spec("thp_huge_alloc@100+50x20");
  ASSERT_TRUE(plan.has_value());
  const PointPlan& p = (*plan)[InjectPoint::kThpHugeAlloc];
  EXPECT_EQ(p.first, 100u);
  EXPECT_EQ(p.period, 50u);
  EXPECT_EQ(p.count, 20u);
  EXPECT_TRUE(p.enabled());
  EXPECT_FALSE((*plan)[InjectPoint::kBuddyAlloc].enabled());
}

TEST(InjectSpec, ParsesProbabilisticEntryWithMagnitude) {
  const auto plan = parse_inject_spec("net_delay~0.02*16");
  ASSERT_TRUE(plan.has_value());
  const PointPlan& p = (*plan)[InjectPoint::kNetDelay];
  EXPECT_EQ(p.first, 0u);
  EXPECT_DOUBLE_EQ(p.probability, 0.02);
  EXPECT_DOUBLE_EQ(p.magnitude, 16.0);
  EXPECT_TRUE(p.enabled());
}

TEST(InjectSpec, ParsesMultipleEntries) {
  const auto plan = parse_inject_spec("buddy_alloc@5,hugetlb_alloc@1x3,direct_reclaim~0.5");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ((*plan)[InjectPoint::kBuddyAlloc].first, 5u);
  EXPECT_EQ((*plan)[InjectPoint::kHugetlbAlloc].count, 3u);
  EXPECT_DOUBLE_EQ((*plan)[InjectPoint::kDirectReclaim].probability, 0.5);
}

TEST(InjectSpec, BareNameFiresOnFirstCall) {
  const auto plan = parse_inject_spec("thp_merge_abort");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ((*plan)[InjectPoint::kThpMergeAbort].first, 1u);
  EXPECT_EQ((*plan)[InjectPoint::kThpMergeAbort].count, 1u);
}

TEST(InjectSpec, RejectsGarbage) {
  EXPECT_FALSE(parse_inject_spec("").has_value());
  EXPECT_FALSE(parse_inject_spec("bogus_point@3").has_value());
  EXPECT_FALSE(parse_inject_spec("buddy_alloc@").has_value());
  EXPECT_FALSE(parse_inject_spec("buddy_alloc@abc").has_value());
  EXPECT_FALSE(parse_inject_spec("buddy_alloc~1.5").has_value()); // probability > 1
  EXPECT_FALSE(parse_inject_spec("net_delay%7").has_value());
  EXPECT_TRUE(parse_inject_spec("buddy_alloc@3,").has_value()); // trailing comma ok
}

TEST(InjectSpec, PointNamesRoundTrip) {
  for (std::size_t i = 0; i < kInjectPointCount; ++i) {
    const auto p = static_cast<InjectPoint>(i);
    const auto back = point_from_name(name(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(point_from_name("nonsense").has_value());
}

// --- full-run graceful degradation ---------------------------------------

TEST_F(InjectionTest, ThpHugeAllocFailureFallsBackTo4K) {
  harness::SingleNodeRunConfig cfg = quick_thp();
  cfg.verify.inject[InjectPoint::kThpHugeAlloc] = PointPlan{1, 1, /*count=*/8};
  const harness::RunResult r = harness::run_single_node(cfg);
  // Exactly the planned number of fires, every one absorbed as a 4K
  // fallback, and the machine stayed consistent.
  const auto idx = static_cast<std::size_t>(InjectPoint::kThpHugeAlloc);
  EXPECT_EQ(r.injected[idx].fired, 8u);
  EXPECT_GE(r.injected[idx].calls, 8u);
  EXPECT_GE(r.thp_fault_fallbacks, 8u);
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
  EXPECT_GT(r.runtime_seconds, 0.0);
}

TEST_F(InjectionTest, BuddyAllocFailureForcesReclaimAndRecovers) {
  harness::SingleNodeRunConfig cfg = quick_thp();
  cfg.verify.inject[InjectPoint::kBuddyAlloc] = PointPlan{100, 200, /*count=*/5};
  const harness::RunResult r = harness::run_single_node(cfg);
  EXPECT_EQ(r.injected[static_cast<std::size_t>(InjectPoint::kBuddyAlloc)].fired, 5u);
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
}

TEST_F(InjectionTest, DirectReclaimComingUpEmptyIsSurvivable) {
  harness::SingleNodeRunConfig cfg = quick_thp();
  // Pair the two: buddy misses push the path into reclaim, and reclaim
  // itself then yields nothing on its first attempts.
  cfg.verify.inject[InjectPoint::kBuddyAlloc] = PointPlan{50, 50, /*count=*/10};
  cfg.verify.inject[InjectPoint::kDirectReclaim] = PointPlan{1, 1, /*count=*/5};
  const harness::RunResult r = harness::run_single_node(cfg);
  EXPECT_EQ(r.injected[static_cast<std::size_t>(InjectPoint::kBuddyAlloc)].fired, 10u);
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
}

TEST_F(InjectionTest, MergeAbortCountsAndRecovers) {
  // khugepaged needs a longer miniMD run before it attempts merges; the
  // HPCCG quick config finishes before the scan fires.
  harness::SingleNodeRunConfig cfg = quick_thp();
  cfg.app = "miniMD";
  cfg.footprint_scale = 0.15;
  cfg.duration_scale = 0.1;
  cfg.verify.inject[InjectPoint::kThpMergeAbort] = PointPlan{1, 1, /*count=*/4};
  const harness::RunResult r = harness::run_single_node(cfg);
  const auto idx = static_cast<std::size_t>(InjectPoint::kThpMergeAbort);
  EXPECT_GT(r.injected[idx].fired, 0u);
  EXPECT_GE(r.thp_merges_aborted, r.injected[idx].fired);
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
}

TEST_F(InjectionTest, HugetlbExhaustionFallsThroughGracefully) {
  harness::SingleNodeRunConfig cfg = quick_thp();
  cfg.manager = harness::Manager::kHugetlbfs;
  cfg.verify.inject[InjectPoint::kHugetlbAlloc] = PointPlan{1, 4, /*count=*/6};
  const harness::RunResult r = harness::run_single_node(cfg);
  const auto idx = static_cast<std::size_t>(InjectPoint::kHugetlbAlloc);
  EXPECT_EQ(r.injected[idx].fired, 6u);
  EXPECT_GE(r.hugetlb_pool_exhausted, 6u);
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
}

TEST_F(InjectionTest, NetDelaySpikeSlowsTheClusterRun) {
  harness::ScalingRunConfig cfg;
  cfg.app = "HPCCG";
  cfg.manager = harness::Manager::kThp;
  cfg.commodity = workloads::no_competition();
  cfg.nodes = 2;
  cfg.seed = 11;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;
  const harness::RunResult base = harness::run_cluster({cfg});
  cfg.verify.inject[InjectPoint::kNetDelay] =
      PointPlan{0, 0, /*count=*/100000, /*probability=*/1.0, /*magnitude=*/64.0};
  const harness::RunResult spiked = harness::run_cluster({cfg});
  EXPECT_GT(spiked.injected_total(), 0u);
  EXPECT_GT(spiked.runtime_seconds, base.runtime_seconds);
}

TEST_F(InjectionTest, AuditOnEveryFireStaysClean) {
  // Debug mode: the auditor runs at the instant of each injected fault
  // (pre-mutation), so any fire-time inconsistency would surface here.
  harness::SingleNodeRunConfig cfg = quick_thp();
  cfg.verify.audit = false; // only the on-fire audits contribute
  cfg.verify.audit_on_injection = true;
  cfg.verify.inject[InjectPoint::kThpHugeAlloc] = PointPlan{1, 20, /*count=*/4};
  const harness::RunResult r = harness::run_single_node(cfg);
  EXPECT_EQ(r.injected[static_cast<std::size_t>(InjectPoint::kThpHugeAlloc)].fired, 4u);
  EXPECT_GT(r.audit_checks, 0u); // the on-fire audits ran
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
}

TEST_F(InjectionTest, HarnessDisarmsInjectorAfterRun) {
  harness::SingleNodeRunConfig cfg = quick_thp();
  cfg.verify.inject[InjectPoint::kThpHugeAlloc] = PointPlan{1};
  (void)harness::run_single_node(cfg);
  EXPECT_FALSE(injector().armed());
}

} // namespace
} // namespace hpmmap::verify
