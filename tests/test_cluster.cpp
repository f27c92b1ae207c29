// PDES cluster harness correctness (DESIGN.md §13). The headline
// checks: per-group work on the pool runs inside its hooks; the nodes=1
// bridge — run_cluster byte-identical to run_scaling, trace stream
// included; the --cluster-jobs determinism contract (any
// worker count byte-identical, exporters included) across a
// nodes × managers matrix; multi-node runtime/fault tables matching the
// shared-engine path; and the topology cost model (flat reproduces the
// paper's single-switch formula through the radix, tree/fat-tree order
// sanely and tree rejects non-power-of-two node counts).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cluster/network.hpp"
#include "harness/cluster.hpp"
#include "harness/experiment.hpp"
#include "introspect/export.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "trace/trace.hpp"

namespace hpmmap {
namespace {

// --- per-group work on the pool ---------------------------------------------

TEST(RunOnGroups, EachGroupRunsOnceInsideItsHooksOnTheSameThread) {
  // Six groups over three workers: each body runs exactly once, strictly
  // between its own group's enter and leave, on the thread that entered.
  constexpr std::size_t kGroups = 6;
  std::array<sim::Engine, kGroups> engines;
  sim::ParallelCoordinator coord(3);
  // Per-group slots: every hook and body touches only its own group's.
  std::array<std::vector<std::string>, kGroups> log;
  std::array<std::thread::id, kGroups> entered_on;
  std::array<bool, kGroups> same_thread{};
  for (std::size_t g = 0; g < kGroups; ++g) {
    coord.add_group(engines[g], {[&, g] {
                                   log[g].push_back("enter");
                                   entered_on[g] = std::this_thread::get_id();
                                 },
                                 [&, g] { log[g].push_back("leave"); }});
  }
  coord.run_on_groups([&](std::size_t g) {
    log[g].push_back("run");
    same_thread[g] = entered_on[g] == std::this_thread::get_id();
  });
  for (std::size_t g = 0; g < kGroups; ++g) {
    EXPECT_EQ(log[g], (std::vector<std::string>{"enter", "run", "leave"})) << "group " << g;
    EXPECT_TRUE(same_thread[g]) << "group " << g;
  }
}

TEST(RunOnGroups, RunsInlineInGroupOrderAtOneWorker) {
  std::array<sim::Engine, 3> engines;
  sim::ParallelCoordinator coord(1);
  std::vector<std::string> log; // shared across groups: safe only because inline
  for (std::size_t g = 0; g < engines.size(); ++g) {
    coord.add_group(engines[g], {[&log, g] { log.push_back("enter" + std::to_string(g)); },
                                 [&log, g] { log.push_back("leave" + std::to_string(g)); }});
  }
  const std::thread::id caller = std::this_thread::get_id();
  bool inline_run = true;
  coord.run_on_groups([&](std::size_t g) {
    inline_run = inline_run && std::this_thread::get_id() == caller;
    log.push_back("run" + std::to_string(g));
  });
  EXPECT_TRUE(inline_run);
  EXPECT_EQ(log, (std::vector<std::string>{"enter0", "run0", "leave0", "enter1", "run1",
                                           "leave1", "enter2", "run2", "leave2"}));
}

// --- topology cost model ---------------------------------------------------

TEST(Topology, NamesRoundTrip) {
  using cluster::Topology;
  EXPECT_EQ(cluster::name(Topology::kFlat), "flat");
  EXPECT_EQ(cluster::name(Topology::kTree), "tree");
  EXPECT_EQ(cluster::name(Topology::kFatTree), "fat-tree");
  EXPECT_EQ(cluster::topology_from_name("flat"), Topology::kFlat);
  EXPECT_EQ(cluster::topology_from_name("tree"), Topology::kTree);
  EXPECT_EQ(cluster::topology_from_name("fat-tree"), Topology::kFatTree);
  EXPECT_FALSE(cluster::topology_from_name("torus").has_value());
}

TEST(Topology, FlatReproducesThePaperFormulaThroughTheRadix) {
  // Single switch, no contention: 2 * ceil(log2 n) * hop, exactly the
  // model run_scaling always used.
  cluster::EthernetSpec eth;
  const double hop = eth.latency_seconds + 8192.0 / eth.bandwidth_bytes_per_sec;
  for (std::uint32_t n : {2u, 8u, 32u}) {
    std::uint32_t rounds = 0;
    while ((1u << rounds) < n) {
      ++rounds;
    }
    EXPECT_DOUBLE_EQ(
        cluster::allreduce_seconds(eth, cluster::Topology::kFlat, n),
        2.0 * rounds * hop)
        << n << " nodes";
  }
}

TEST(Topology, FlatContentionGrowsPastTheRadix) {
  cluster::EthernetSpec eth;
  const double at32 = cluster::allreduce_seconds(eth, cluster::Topology::kFlat, 32);
  const double at64 = cluster::allreduce_seconds(eth, cluster::Topology::kFlat, 64);
  const double at256 = cluster::allreduce_seconds(eth, cluster::Topology::kFlat, 256);
  // 64 nodes: one extra round AND 2x port contention.
  EXPECT_GT(at64, 2.0 * at32);
  EXPECT_GT(at256, at64);
}

TEST(Topology, TreeBeatsFlatAtScaleAndNeedsPowerOfTwo) {
  cluster::EthernetSpec eth;
  EXPECT_TRUE(cluster::topology_supports(cluster::Topology::kTree, 64));
  EXPECT_FALSE(cluster::topology_supports(cluster::Topology::kTree, 48));
  EXPECT_TRUE(cluster::topology_supports(cluster::Topology::kFlat, 48));
  EXPECT_TRUE(cluster::topology_supports(cluster::Topology::kFatTree, 48));
  // The binomial tree never pays port contention, so past the radix it
  // wins over the flat switch.
  EXPECT_LT(cluster::allreduce_seconds(eth, cluster::Topology::kTree, 256),
            cluster::allreduce_seconds(eth, cluster::Topology::kFlat, 256));
}

TEST(Topology, FatTreeCostsOrderSanely) {
  cluster::EthernetSpec eth;
  // One edge switch: identical to flat.
  EXPECT_DOUBLE_EQ(cluster::allreduce_seconds(eth, cluster::Topology::kFatTree, 16),
                   cluster::allreduce_seconds(eth, cluster::Topology::kFlat, 16));
  // More levels -> longer staged hops, but still cheaper than the
  // contended flat switch at scale.
  const double small = cluster::allreduce_seconds(eth, cluster::Topology::kFatTree, 16);
  const double big = cluster::allreduce_seconds(eth, cluster::Topology::kFatTree, 256);
  EXPECT_GT(big, small);
  EXPECT_LT(big, cluster::allreduce_seconds(eth, cluster::Topology::kFlat, 256));
}

// --- run_cluster vs run_scaling -------------------------------------------

harness::ScalingRunConfig scaling_quick(const std::string& app, harness::Manager mgr,
                                        std::uint32_t nodes) {
  harness::ScalingRunConfig cfg;
  cfg.app = app;
  cfg.manager = mgr;
  cfg.nodes = nodes;
  cfg.ranks_per_node = 2;
  cfg.seed = 99;
  cfg.footprint_scale = 0.05;
  cfg.duration_scale = 0.05;
  cfg.commodity = workloads::profile_c();
  cfg.warmup_seconds = 0.3;
  return cfg;
}

void expect_args_equal(const trace::Event& a, const trace::Event& b, std::size_t i) {
  ASSERT_EQ(a.arg_count, b.arg_count) << "event " << i;
  for (std::uint8_t k = 0; k < a.arg_count; ++k) {
    const trace::Arg& x = a.args[k];
    const trace::Arg& y = b.args[k];
    ASSERT_STREQ(x.name, y.name) << "event " << i << " arg " << int{k};
    ASSERT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind)) << "event " << i;
    switch (x.kind) {
      case trace::Arg::Kind::kNone: break;
      case trace::Arg::Kind::kU64:
        EXPECT_EQ(x.value.u64, y.value.u64) << "event " << i << " arg " << int{k};
        break;
      case trace::Arg::Kind::kF64:
        EXPECT_EQ(x.value.f64, y.value.f64) << "event " << i << " arg " << int{k};
        break;
      case trace::Arg::Kind::kStr:
        EXPECT_STREQ(x.value.str, y.value.str) << "event " << i << " arg " << int{k};
        break;
    }
  }
}

void expect_events_equal(const std::vector<trace::Event>& a,
                         const std::vector<trace::Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ts, b[i].ts) << "event " << i << " " << a[i].name();
    EXPECT_EQ(a[i].dur, b[i].dur) << "event " << i;
    EXPECT_EQ(a[i].name(), b[i].name()) << "event " << i;
    EXPECT_EQ(static_cast<std::uint32_t>(a[i].cat), static_cast<std::uint32_t>(b[i].cat));
    EXPECT_EQ(static_cast<char>(a[i].phase), static_cast<char>(b[i].phase));
    EXPECT_EQ(a[i].pid, b[i].pid) << "event " << i;
    EXPECT_EQ(a[i].core, b[i].core) << "event " << i;
    expect_args_equal(a[i], b[i], i);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

void expect_telemetry_equal(const harness::RunResult& a, const harness::RunResult& b) {
  ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
  for (std::size_t i = 0; i < a.telemetry.size(); ++i) {
    EXPECT_EQ(a.telemetry[i].metric, b.telemetry[i].metric) << "series " << i;
    EXPECT_EQ(a.telemetry[i].labels, b.telemetry[i].labels) << "series " << i;
    const std::vector<introspect::TimePoint> pa = a.telemetry[i].ordered();
    const std::vector<introspect::TimePoint> pb = b.telemetry[i].ordered();
    ASSERT_EQ(pa.size(), pb.size()) << "series " << a.telemetry[i].metric;
    for (std::size_t j = 0; j < pa.size(); ++j) {
      EXPECT_EQ(pa[j].ts, pb[j].ts) << a.telemetry[i].metric << " point " << j;
      EXPECT_EQ(pa[j].value, pb[j].value) << a.telemetry[i].metric << " point " << j;
    }
  }
  // Satellite contract: the exported files are byte-identical too.
  EXPECT_EQ(introspect::openmetrics(a.telemetry), introspect::openmetrics(b.telemetry));
  EXPECT_EQ(introspect::telemetry_csv(a.telemetry), introspect::telemetry_csv(b.telemetry));
}

/// Full byte-equality, trace stream and telemetry included.
void expect_run_equal(const harness::RunResult& a, const harness::RunResult& b) {
  EXPECT_EQ(a.runtime_seconds, b.runtime_seconds);
  EXPECT_EQ(a.clock_hz, b.clock_hz);
  for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
    EXPECT_EQ(a.faults.count[k], b.faults.count[k]) << "kind " << k;
    EXPECT_EQ(a.faults.total_cycles[k], b.faults.total_cycles[k]) << "kind " << k;
    EXPECT_EQ(a.by_kind_summaries[k].total_faults, b.by_kind_summaries[k].total_faults);
    EXPECT_EQ(a.by_kind_summaries[k].avg_cycles, b.by_kind_summaries[k].avg_cycles);
    EXPECT_EQ(a.by_kind_summaries[k].stdev_cycles, b.by_kind_summaries[k].stdev_cycles);
  }
  EXPECT_EQ(a.trace_dropped, b.trace_dropped);
  EXPECT_EQ(a.app_pids, b.app_pids);
  EXPECT_EQ(a.trace_t0, b.trace_t0);
  EXPECT_EQ(a.thp_merges, b.thp_merges);
  EXPECT_EQ(a.thp_fault_fallbacks, b.thp_fault_fallbacks);
  EXPECT_EQ(a.thp_merges_aborted, b.thp_merges_aborted);
  EXPECT_EQ(a.hugetlb_pool_exhausted, b.hugetlb_pool_exhausted);
  EXPECT_EQ(a.hpmmap_spurious_faults, b.hpmmap_spurious_faults);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.audit_checks, b.audit_checks);
  EXPECT_EQ(a.audit_violations, b.audit_violations);
  EXPECT_EQ(a.audit_report, b.audit_report);
  EXPECT_EQ(a.procfs_text, b.procfs_text);
  expect_events_equal(a.events, b.events);
  expect_telemetry_equal(a, b);
}

/// The shared-engine comparison at nodes > 1: per-node trajectories are
/// identical, so the physics (runtime, faults, pids, node counters) must
/// match; engine bookkeeping (events_fired) legitimately differs (N
/// finish events, N sampler daemons instead of one).
void expect_tables_equal(const harness::RunResult& cluster,
                         const harness::RunResult& scaling) {
  EXPECT_EQ(cluster.runtime_seconds, scaling.runtime_seconds);
  for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
    EXPECT_EQ(cluster.faults.count[k], scaling.faults.count[k]) << "kind " << k;
    EXPECT_EQ(cluster.faults.total_cycles[k], scaling.faults.total_cycles[k]) << "kind " << k;
  }
  EXPECT_EQ(cluster.app_pids, scaling.app_pids);
  EXPECT_EQ(cluster.thp_merges, scaling.thp_merges);
  EXPECT_EQ(cluster.hpmmap_spurious_faults, scaling.hpmmap_spurious_faults);
  EXPECT_EQ(cluster.hugetlb_pool_exhausted, scaling.hugetlb_pool_exhausted);
}

TEST(ClusterBridge, SingleNodeIsByteIdenticalToRunScaling) {
  harness::ScalingRunConfig cfg = scaling_quick("HPCCG", harness::Manager::kHpmmap, 1);
  cfg.trace.categories = trace::kAllCategories;
  cfg.introspect.sample_interval = 40'000'000;
  cfg.introspect.procfs_dump = true;
  const harness::RunResult seq = harness::run_scaling(cfg);

  harness::ClusterRunConfig ccfg;
  ccfg.scaling = cfg;
  const harness::RunResult par = harness::run_cluster(ccfg);
  ASSERT_FALSE(seq.events.empty());
  expect_run_equal(par, seq);
}

class ClusterManagers : public ::testing::TestWithParam<harness::Manager> {};

TEST_P(ClusterManagers, AnyWorkerCountIsByteIdentical) {
  harness::ClusterRunConfig cfg;
  cfg.scaling = scaling_quick("miniFE", GetParam(), 4);
  cfg.scaling.trace.categories = trace::kAllCategories;
  cfg.scaling.introspect.sample_interval = 40'000'000;
  cfg.scaling.introspect.procfs_dump = true;

  cfg.cluster_jobs = 1;
  const harness::RunResult inline_ref = harness::run_cluster(cfg);
  // 4 workers on 4 nodes boots every node on its own thread.
  for (unsigned jobs : {2u, 4u, 5u}) {
    cfg.cluster_jobs = jobs;
    const harness::RunResult par = harness::run_cluster(cfg);
    expect_run_equal(par, inline_ref);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST_P(ClusterManagers, MultiNodeTablesMatchTheSharedEngine) {
  for (std::uint32_t nodes : {2u, 4u, 8u}) {
    const harness::ScalingRunConfig cfg = scaling_quick("HPCCG", GetParam(), nodes);
    const harness::RunResult seq = harness::run_scaling(cfg);
    harness::ClusterRunConfig ccfg;
    ccfg.scaling = cfg;
    ccfg.cluster_jobs = 3;
    const harness::RunResult par = harness::run_cluster(ccfg);
    expect_tables_equal(par, seq);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Managers, ClusterManagers,
                         ::testing::Values(harness::Manager::kThp,
                                           harness::Manager::kHugetlbfs,
                                           harness::Manager::kHpmmap));

TEST(ClusterTrials, SeriesPointsAreWorkerCountInvariant) {
  harness::ClusterRunConfig cfg;
  cfg.scaling = scaling_quick("LAMMPS", harness::Manager::kThp, 2);
  cfg.cluster_jobs = 1;
  const harness::SeriesPoint a = harness::run_cluster_trials(cfg, 3);
  cfg.cluster_jobs = 4;
  const harness::SeriesPoint b = harness::run_cluster_trials(cfg, 3);
  EXPECT_EQ(a.mean_seconds, b.mean_seconds);
  EXPECT_EQ(a.stdev_seconds, b.stdev_seconds);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.fault_counts, b.fault_counts);
  EXPECT_EQ(a.fault_cycles, b.fault_cycles);
}

TEST(ClusterTopology, TreeRunsAndIsFasterThanFlatPastTheRadix) {
  // Behavioral check at a scale small enough for a unit test: the tree
  // collective changes only the comm draw, so runs stay deterministic.
  harness::ClusterRunConfig cfg;
  cfg.scaling = scaling_quick("HPCCG", harness::Manager::kHpmmap, 4);
  cfg.topology = cluster::Topology::kTree;
  const harness::RunResult tree = harness::run_cluster(cfg);
  cfg.topology = cluster::Topology::kFlat;
  const harness::RunResult flat = harness::run_cluster(cfg);
  // At 4 nodes both topologies price the collective identically (no
  // contention below the radix, same round count), so the runs agree.
  EXPECT_EQ(tree.runtime_seconds, flat.runtime_seconds);
}

} // namespace
} // namespace hpmmap
