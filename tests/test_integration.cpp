// End-to-end integration tests: the experiment harness reproduces the
// paper's qualitative claims at reduced scale, the cluster comm model
// behaves, and the table/CSV output works.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "cluster/network.hpp"
#include "harness/batch.hpp"
#include "harness/cluster.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"

namespace hpmmap {
namespace {

harness::SingleNodeRunConfig quick(const std::string& app, harness::Manager mgr,
                                   workloads::CommodityProfile commodity,
                                   std::uint32_t cores) {
  harness::SingleNodeRunConfig cfg;
  cfg.app = app;
  cfg.manager = mgr;
  cfg.commodity = commodity;
  cfg.app_cores = cores;
  cfg.seed = 7;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;
  return cfg;
}

TEST(Integration, SingleNodeRunProducesSaneResult) {
  const harness::RunResult r = harness::run_single_node(
      quick("HPCCG", harness::Manager::kThp, workloads::no_competition(), 2));
  EXPECT_GT(r.runtime_seconds, 0.1);
  EXPECT_LT(r.runtime_seconds, 60.0);
  EXPECT_GT(r.faults.count[0] + r.faults.count[1], 100u);
}

TEST(Integration, HpmmapTakesFarFewerFaultsThanLinux) {
  const harness::RunResult thp = harness::run_single_node(
      quick("miniMD", harness::Manager::kThp, workloads::profile_a(2), 2));
  const harness::RunResult hpm = harness::run_single_node(
      quick("miniMD", harness::Manager::kHpmmap, workloads::profile_a(2), 2));
  const std::uint64_t thp_faults = thp.faults.count[0] + thp.faults.count[1];
  const std::uint64_t hpm_faults = hpm.faults.count[0] + hpm.faults.count[1];
  EXPECT_LT(hpm_faults * 10, thp_faults); // §III: near-zero faults
  EXPECT_EQ(hpm.hpmmap_spurious_faults, 0u);
}

TEST(Integration, HpmmapIsNotSlowerUnderLoad) {
  // At reduced scale the gaps are small, but HPMMAP must never lose to
  // THP under competing load (the paper's universal result).
  const harness::RunResult thp = harness::run_single_node(
      quick("HPCCG", harness::Manager::kThp, workloads::profile_b(4), 4));
  const harness::RunResult hpm = harness::run_single_node(
      quick("HPCCG", harness::Manager::kHpmmap, workloads::profile_b(4), 4));
  EXPECT_LE(hpm.runtime_seconds, thp.runtime_seconds * 1.02);
}

TEST(Integration, TraceRecordsFaultTimeline) {
  harness::SingleNodeRunConfig cfg =
      quick("miniMD", harness::Manager::kThp, workloads::profile_a(2), 2);
  cfg.trace.categories = static_cast<std::uint32_t>(trace::Category::kFault);
  const harness::RunResult r = harness::run_single_node(cfg);
  ASSERT_FALSE(r.events.empty());
  const std::vector<harness::FaultSample> samples = harness::app_fault_samples(r);
  ASSERT_FALSE(samples.empty());
  // Samples come back time-sorted, all at/after job start (the warmup's
  // kernel-build faults belong to other pids and are filtered out).
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].when, samples[i - 1].when);
  }
  EXPECT_GE(samples.front().when, r.trace_t0);
  // The reconstructed per-kind totals match the kernel's own counters.
  std::uint64_t sampled = 0;
  for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
    sampled += r.by_kind(static_cast<mm::FaultKind>(k)).total_faults;
  }
  EXPECT_EQ(sampled, samples.size());
}

TEST(Integration, RunTrialsAggregatesSeeds) {
  harness::SingleNodeRunConfig cfg =
      quick("HPCCG", harness::Manager::kThp, workloads::no_competition(), 2);
  const harness::SeriesPoint p = harness::run_trials(cfg, 3);
  EXPECT_EQ(p.trials, 3u);
  EXPECT_GT(p.mean_seconds, 0.0);
  EXPECT_GE(p.stdev_seconds, 0.0);
}

TEST(Integration, ScalingRunCompletesOnMultipleNodes) {
  harness::ScalingRunConfig cfg;
  cfg.app = "HPCCG";
  cfg.manager = harness::Manager::kThp;
  cfg.commodity = workloads::profile_c();
  cfg.nodes = 2;
  cfg.ranks_per_node = 2;
  cfg.seed = 3;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;
  const harness::RunResult r = harness::run_cluster({cfg});
  EXPECT_GT(r.runtime_seconds, 0.0);
}

TEST(Integration, ScalingHpmmapCompletesWithNearZeroFaults) {
  harness::ScalingRunConfig cfg;
  cfg.app = "LAMMPS";
  cfg.manager = harness::Manager::kHpmmap;
  cfg.commodity = workloads::profile_c();
  cfg.nodes = 2;
  cfg.ranks_per_node = 2;
  cfg.seed = 3;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;
  const harness::RunResult r = harness::run_cluster({cfg});
  EXPECT_EQ(r.faults.count[1], 0u);
  EXPECT_LT(r.faults.count[0], 8192u);
}

TEST(Integration, DeterministicGivenSeed) {
  const harness::RunResult a = harness::run_single_node(
      quick("miniFE", harness::Manager::kThp, workloads::profile_a(2), 2));
  const harness::RunResult b = harness::run_single_node(
      quick("miniFE", harness::Manager::kThp, workloads::profile_a(2), 2));
  EXPECT_DOUBLE_EQ(a.runtime_seconds, b.runtime_seconds);
  EXPECT_EQ(a.faults.count[0], b.faults.count[0]);
}

TEST(Integration, DifferentSeedsDiffer) {
  harness::SingleNodeRunConfig cfg =
      quick("miniFE", harness::Manager::kThp, workloads::profile_a(2), 2);
  const harness::RunResult a = harness::run_single_node(cfg);
  cfg.seed = 8;
  const harness::RunResult b = harness::run_single_node(cfg);
  EXPECT_NE(a.runtime_seconds, b.runtime_seconds);
}

// --- cluster network ---------------------------------------------------------------

TEST(Cluster, P2pCostHasLatencyAndBandwidthTerms) {
  cluster::EthernetSpec eth;
  const double small = cluster::p2p_seconds(eth, 64);
  const double large = cluster::p2p_seconds(eth, 10 * 1024 * 1024);
  EXPECT_NEAR(small, eth.latency_seconds, 1e-5);
  EXPECT_GT(large, 10 * 1024 * 1024 / eth.bandwidth_bytes_per_sec);
}

TEST(Cluster, CommCostGrowsWithNodeCount) {
  cluster::EthernetSpec eth;
  eth.jitter_cv = 0.0; // deterministic comparison
  const workloads::AppProfile app = workloads::hpccg(2.93e9);
  auto one = cluster::ethernet_comm(eth, 2.93e9, 1, Rng(1));
  auto four = cluster::ethernet_comm(eth, 2.93e9, 4, Rng(1));
  auto eight = cluster::ethernet_comm(eth, 2.93e9, 8, Rng(1));
  EXPECT_LT(one(app, 4), four(app, 16));
  EXPECT_LT(four(app, 16), eight(app, 32));
}

TEST(Cluster, SingleNodeSkipsNetwork) {
  cluster::EthernetSpec eth;
  eth.jitter_cv = 0.0;
  const workloads::AppProfile app = workloads::hpccg(2.93e9);
  auto one = cluster::ethernet_comm(eth, 2.93e9, 1, Rng(1));
  // Intra-node only: microseconds, not the 100us+ network scale.
  EXPECT_LT(one(app, 4), static_cast<Cycles>(50e-6 * 2.93e9));
}

// --- table output ---------------------------------------------------------------------

TEST(Table, FormatsAlignedAscii) {
  harness::Table t({"App", "Runtime"});
  t.add_row({"HPCCG", "65.2"});
  t.add_row({"miniMD", "372.9"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| App    |"), std::string::npos);
  EXPECT_NE(s.find("| miniMD | 372.9   |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvRoundTrip) {
  harness::Table t({"a", "b"});
  t.add_row({"1", "with,comma"});
  t.add_row({"2", "with\"quote"});
  const std::string path = "/tmp/hpmmap_test_table.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "1,\"with,comma\"");
  std::getline(f, line);
  EXPECT_EQ(line, "2,\"with\"\"quote\"");
  std::remove(path.c_str());
}

TEST(Table, WithCommas) {
  EXPECT_EQ(harness::with_commas(0), "0");
  EXPECT_EQ(harness::with_commas(999), "999");
  EXPECT_EQ(harness::with_commas(1768), "1,768");
  EXPECT_EQ(harness::with_commas(3360292), "3,360,292");
}

TEST(Table, FixedFormatting) {
  EXPECT_EQ(harness::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(harness::fixed(10.0, 0), "10");
}

TEST(TableDeath, MismatchedRowAborts) {
  harness::Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "row width");
}

} // namespace
} // namespace hpmmap
