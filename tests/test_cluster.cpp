// PDES cluster harness correctness (DESIGN.md §13). The headline
// checks: per-group work on the pool runs inside its hooks; run_cluster
// against the golden recorded from the shared-engine path it replaced
// (runtime/fault tables at 1–8 nodes, the nodes=1 trace/telemetry/procfs
// bytes, the traced run's registry counters); the --cluster-jobs
// determinism contract (any worker count byte-identical, exporters
// included) across a nodes × managers matrix; capture/resume exactness;
// and the topology cost model (flat reproduces the paper's single-switch
// formula through the radix, tree/fat-tree order sanely and tree rejects
// non-power-of-two node counts).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/network.hpp"
#include "harness/cluster.hpp"
#include "harness/experiment.hpp"
#include "introspect/export.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
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
  // paper's model.
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

// --- run_cluster ------------------------------------------------------------

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

// --- the shared-engine golden --------------------------------------------
//
// tests/golden/scaling_tables.txt was recorded from the shared-engine
// path before it was deleted; each line is rebuilt here from run_cluster
// and compared verbatim.

constexpr harness::Manager kManagers[] = {harness::Manager::kThp, harness::Manager::kHugetlbfs,
                                          harness::Manager::kHpmmap};

const char* short_name(harness::Manager m) {
  switch (m) {
    case harness::Manager::kThp:       return "thp";
    case harness::Manager::kHugetlbfs: return "hugetlbfs";
    case harness::Manager::kHpmmap:    return "hpmmap";
  }
  return "?";
}

std::string fnv(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string table_line(harness::Manager mgr, std::uint32_t nodes, const harness::RunResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "table %s n%u runtime=%a", short_name(mgr), nodes,
                r.runtime_seconds);
  std::string line = buf;
  for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
    const std::string kind(mm::name(static_cast<mm::FaultKind>(k)));
    std::snprintf(buf, sizeof buf, " %s=%llu/%llu", kind.c_str(),
                  static_cast<unsigned long long>(r.faults.count[k]),
                  static_cast<unsigned long long>(r.faults.total_cycles[k]));
    line += buf;
  }
  std::string pids;
  for (const Pid p : r.app_pids) {
    pids += std::to_string(p);
    pids += ',';
  }
  std::snprintf(buf, sizeof buf, " thp_merges=%llu spurious=%llu pool_exhausted=%llu pids=%s",
                static_cast<unsigned long long>(r.thp_merges),
                static_cast<unsigned long long>(r.hpmmap_spurious_faults),
                static_cast<unsigned long long>(r.hugetlb_pool_exhausted), fnv(pids).c_str());
  return line + buf;
}

/// The golden's lines whose first word is `kind`, in file order.
std::vector<std::string> golden_lines(std::string_view kind) {
  std::ifstream in(std::string(HPMMAP_GOLDEN_DIR) + "/scaling_tables.txt");
  EXPECT_TRUE(in.good()) << "missing tests/golden/scaling_tables.txt";
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(std::string(kind) + " ", 0) == 0) {
      out.push_back(line);
    }
  }
  return out;
}

/// The golden table line for `mgr` at `nodes`, or an empty string.
std::string golden_table(harness::Manager mgr, std::uint32_t nodes) {
  const std::string prefix =
      std::string("table ") + short_name(mgr) + " n" + std::to_string(nodes) + " ";
  for (const std::string& line : golden_lines("table")) {
    if (line.rfind(prefix, 0) == 0) {
      return line;
    }
  }
  ADD_FAILURE() << "no golden line for " << prefix;
  return {};
}

harness::RunResult run_scaling_quick(harness::Manager mgr, std::uint32_t nodes) {
  harness::ClusterRunConfig cfg;
  cfg.scaling = scaling_quick("HPCCG", mgr, nodes);
  cfg.cluster_jobs = 3;
  return harness::run_cluster(cfg);
}

// The golden's table and bridge lines were recorded from run_scaling at
// one node; run_cluster must reproduce them byte for byte.
TEST(ClusterBridge, SingleNodeIsByteIdenticalToRunScaling) {
  for (const harness::Manager mgr : kManagers) {
    EXPECT_EQ(table_line(mgr, 1, run_scaling_quick(mgr, 1)), golden_table(mgr, 1));
  }

  harness::ClusterRunConfig cfg;
  cfg.scaling = scaling_quick("HPCCG", harness::Manager::kHpmmap, 1);
  cfg.scaling.trace.categories = trace::kAllCategories;
  cfg.scaling.introspect.sample_interval = 40'000'000;
  cfg.scaling.introspect.procfs_dump = true;
  const harness::RunResult r = harness::run_cluster(cfg);
  const std::vector<std::string> bridge = {
      "bridge events=" + std::to_string(r.events.size()) + " csv=" + fnv(trace::csv(r.events)),
      "bridge fired=" + std::to_string(r.events_fired) + " t0=" + std::to_string(r.trace_t0) +
          " dropped=" + std::to_string(r.trace_dropped),
      "bridge telemetry=" + std::to_string(r.telemetry.size()) +
          " csv=" + fnv(introspect::telemetry_csv(r.telemetry)),
      "bridge procfs=" + std::to_string(r.procfs_text.size()) + " fnv=" + fnv(r.procfs_text)};
  EXPECT_EQ(bridge, golden_lines("bridge"));
}

TEST(ClusterGolden, TracedRunLeavesTheSharedEngineCountersInTheCallersRegistry) {
  std::vector<std::string> lines;
  for (const harness::Manager mgr : kManagers) {
    harness::ClusterRunConfig cfg;
    cfg.scaling = scaling_quick("HPCCG", mgr, 4);
    cfg.scaling.trace.categories = trace::kAllCategories;
    cfg.cluster_jobs = 2;
    static_cast<void>(harness::run_cluster(cfg));
    for (const auto& [key, value] : trace::metrics().counters()) {
      for (const std::string_view prefix :
           {"buddy.", "mm.", "thp.", "khugepaged.", "hugetlb.", "fault.", "hpmmap."}) {
        if (key.rfind(prefix, 0) == 0) {
          lines.push_back(std::string("counter ") + short_name(mgr) + " n4 " + key + " " +
                          std::to_string(value));
          break;
        }
      }
    }
  }
  EXPECT_EQ(lines, golden_lines("counter"));
}

class ClusterManagers : public ::testing::TestWithParam<harness::Manager> {};

// The golden's multi-node table lines were recorded from the shared engine.
TEST_P(ClusterManagers, MultiNodeTablesMatchTheSharedEngine) {
  for (const std::uint32_t nodes : {2u, 4u, 8u}) {
    EXPECT_EQ(table_line(GetParam(), nodes, run_scaling_quick(GetParam(), nodes)),
              golden_table(GetParam(), nodes));
  }
}

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

TEST_P(ClusterManagers, ResumedRunIsByteIdenticalAtAnyWorkerCount) {
  harness::ClusterRunConfig cfg;
  cfg.scaling = scaling_quick("miniFE", GetParam(), 3);
  cfg.scaling.trace.categories = trace::kAllCategories;
  cfg.scaling.introspect.sample_interval = 40'000'000;
  cfg.scaling.introspect.procfs_dump = true;
  const harness::RunResult straight = harness::run_cluster(cfg);
  const harness::ClusterImage image = harness::capture_scaling(cfg.scaling);
  ASSERT_EQ(image.size(), 3u);
  for (unsigned jobs : {1u, 3u}) {
    cfg.cluster_jobs = jobs;
    expect_run_equal(harness::run_cluster(cfg, image), straight);
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
