// Introspection-layer tests: golden procfs text against a scripted
// fault sequence, buddyinfo/free-block/auditor reconciliation, the sampler
// determinism contract (sampling on == sampling off, byte for byte, in
// every other output), --jobs byte-identity of the exported telemetry,
// the exporters, and the bench_diff verdict logic.
//
// Refresh the procfs goldens after an intentional behaviour change with:
//   HPMMAP_UPDATE_GOLDEN=1 ./test_introspect
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "harness/batch.hpp"
#include "harness/experiment.hpp"
#include "harness/result_fields.hpp"
#include "introspect/bench_diff.hpp"
#include "introspect/export.hpp"
#include "introspect/procfs.hpp"
#include "introspect/sampler.hpp"
#include "introspect/snapshot.hpp"
#include "linux_mm/buddy_allocator.hpp"
#include "linux_mm/memory_system.hpp"
#include "os/node.hpp"
#include "os/process.hpp"
#include "sim/engine.hpp"
#include "trace/export.hpp"
#include "verify/audit.hpp"

namespace hpmmap {
namespace {

// --- golden-file plumbing (same contract as test_golden_tables) --------

std::string golden_path(const std::string& name) {
  return std::string(HPMMAP_GOLDEN_DIR) + "/" + name;
}

bool update_mode() { return std::getenv("HPMMAP_UPDATE_GOLDEN") != nullptr; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return in ? ss.str() : std::string{};
}

void check_golden(const std::string& name, const std::string& produced) {
  const std::string path = golden_path(name);
  if (update_mode()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << produced;
    return;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << path << " missing — regenerate with HPMMAP_UPDATE_GOLDEN=1";
  EXPECT_EQ(expected, produced)
      << "procfs text drifted from golden " << path
      << " (HPMMAP_UPDATE_GOLDEN=1 refreshes it if the change is intended)";
}

// --- scripted fault sequence -------------------------------------------
// A deterministic little machine: clean boot, HPMMAP module loaded, one
// THP process and one HPMMAP process run a fixed mmap/touch/mlock/free
// script. Everything the procfs goldens and the reconciliation checks
// look at derives from this state.

os::NodeConfig script_config() {
  os::NodeConfig cfg;
  cfg.machine = hw::dell_r415();
  cfg.machine.ram_bytes = 4 * GiB;
  cfg.seed = 7;
  cfg.aged_boot = false; // clean slate: the script is the whole history
  cfg.thp_enabled = true;
  core::ModuleConfig mod;
  mod.offline_bytes_per_zone = 512 * MiB;
  cfg.hpmmap = mod;
  return cfg;
}

struct ScriptedNode {
  sim::Engine engine;
  os::Node node;
  os::Process* thp_proc = nullptr;
  os::Process* hpmmap_proc = nullptr;

  ScriptedNode() : node(engine, script_config()) {
    thp_proc = &node.spawn("mdapp", os::MmPolicy::kLinuxThp, 0, 1.0,
                           mm::AddressSpace::ZonePolicy::kSingle, 0);
    hpmmap_proc = &node.spawn("hpcapp", os::MmPolicy::kHpmmap, 1, 1.0,
                              mm::AddressSpace::ZonePolicy::kSingle, 1);

    // THP side: a 2M-eligible heap, fully touched (huge faults), plus a
    // small misc mapping partially locked (forces a split).
    auto heap = node.sys_mmap(*thp_proc, 8 * MiB, kProtRW, os::Node::Segment::kHeapData);
    EXPECT_EQ(heap.err, Errno::kOk);
    (void)node.touch_range(*thp_proc, Range{heap.addr, heap.addr + 8 * MiB});
    auto misc = node.sys_mmap(*thp_proc, 4 * MiB, kProtRW, os::Node::Segment::kHeapData);
    EXPECT_EQ(misc.err, Errno::kOk);
    (void)node.touch_range(*thp_proc, Range{misc.addr, misc.addr + 4 * MiB});
    EXPECT_EQ(node.sys_mlock(*thp_proc, misc.addr, 64 * KiB).err, Errno::kOk);

    // HPMMAP side: a data region faulted through the module window.
    auto data =
        node.sys_mmap(*hpmmap_proc, 16 * MiB, kProtRW, os::Node::Segment::kHeapData);
    EXPECT_EQ(data.err, Errno::kOk);
    (void)node.touch_range(*hpmmap_proc, Range{data.addr, data.addr + 16 * MiB});

    // Kernel churn: a handful of allocations, one freed again.
    const auto k0 = node.kernel_alloc(0, 0);
    const auto k1 = node.kernel_alloc(0, 3);
    EXPECT_TRUE(k0 && k1);
    node.kernel_free(0, *k1, 3);
  }
};

TEST(ProcfsGolden, Buddyinfo) {
  ScriptedNode s;
  check_golden("procfs_buddyinfo.txt", introspect::buddyinfo_text(s.node));
}

TEST(ProcfsGolden, Meminfo) {
  ScriptedNode s;
  check_golden("procfs_meminfo.txt", introspect::meminfo_text(s.node));
}

TEST(ProcfsGolden, Smaps) {
  ScriptedNode s;
  check_golden("procfs_smaps.txt", introspect::smaps_text(s.node, *s.thp_proc) +
                                       introspect::smaps_text(s.node, *s.hpmmap_proc));
}

TEST(ProcfsGolden, VmstatAndPagetypeinfo) {
  ScriptedNode s;
  check_golden("procfs_vmstat.txt",
               introspect::vmstat_text(s.node) + introspect::pagetypeinfo_text(s.node));
}

// --- reconciliation: buddyinfo <-> free-block sweep <-> auditor ---------

TEST(ProcfsReconcile, BuddyinfoMatchesTheFreeBlockSweep) {
  ScriptedNode s;
  std::vector<introspect::BuddyinfoZone> zones;
  introspect::capture_buddyinfo(s.node, zones);
  mm::MemorySystem& mem = s.node.memory();
  ASSERT_GE(zones.size(), mem.zone_count());
  for (ZoneId z = 0; z < mem.zone_count(); ++z) {
    const introspect::BuddyinfoZone& row = zones[z];
    ASSERT_STREQ(row.zone_name, "Normal");
    const mm::BuddyAllocator& buddy = mem.buddy(z);
    // Recount from the bitmaps' bits, not their per-order counts: every
    // free block, bucketed by order.
    std::vector<std::uint64_t> swept(buddy.max_order() + 1, 0);
    std::uint64_t free_bytes = 0;
    buddy.for_each_free_block([&](Addr, unsigned order) {
      ASSERT_LT(order, swept.size());
      ++swept[order];
      free_bytes += kSmallPageSize << order;
    });
    EXPECT_EQ(row.free_counts, swept) << "zone " << z;
    EXPECT_EQ(free_bytes, buddy.free_bytes()) << "zone " << z;
  }
}

TEST(ProcfsReconcile, AuditorAgreesWithSnapshotState) {
  ScriptedNode s;
  verify::MmAuditor auditor(s.node);
  const verify::AuditReport report = auditor.run();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.checks, 0u);
}

// --- sampler determinism contract --------------------------------------

harness::SingleNodeRunConfig fig4_style_config() {
  harness::SingleNodeRunConfig cfg;
  cfg.app = "miniMD";
  cfg.manager = harness::Manager::kThp;
  cfg.commodity = workloads::no_competition();
  cfg.app_cores = 8;
  cfg.seed = 41;
  cfg.trace.categories = static_cast<std::uint32_t>(trace::Category::kFault);
  cfg.footprint_scale = 0.25;
  cfg.duration_scale = 0.15;
  return cfg;
}

TEST(SamplerDeterminism, SamplingLeavesTraceAndTablesUnchanged) {
  harness::SingleNodeRunConfig off = fig4_style_config();
  harness::SingleNodeRunConfig on = fig4_style_config();
  on.introspect.sample_interval = 10'000'000;

  const harness::RunResult r_off = harness::run_single_node(off);
  harness::RunResult r_on = harness::run_single_node(on);

  EXPECT_TRUE(r_off.telemetry.empty());
  EXPECT_FALSE(r_on.telemetry.empty());

  // Same simulation, trace stream (the fig4/fig5 scatter source) and
  // tables once what sampling adds is taken out: its series, and its
  // daemon's ticks as engine events.
  r_on.telemetry.clear();
  EXPECT_GT(r_on.events_fired, r_off.events_fired);
  r_on.events_fired = r_off.events_fired;
  EXPECT_EQ(harness::first_difference(r_off, r_on), std::nullopt);
}

TEST(SamplerDeterminism, MetricsExportByteIdenticalAcrossJobs) {
  harness::SingleNodeRunConfig base;
  base.app = "miniMD";
  base.manager = harness::Manager::kHpmmap;
  base.commodity = workloads::no_competition();
  base.seed = 97;
  base.footprint_scale = 0.1;
  base.duration_scale = 0.05;
  base.introspect.sample_interval = 10'000'000;

  const std::vector<harness::SingleNodeRunConfig> cfgs = harness::trial_configs(base, 3);
  const std::vector<harness::RunResult> serial = harness::run_batch(cfgs, 1);
  const std::vector<harness::RunResult> parallel = harness::run_batch(cfgs, 4);
  ASSERT_EQ(serial.size(), parallel.size());

  trace::ExportOptions eopt;
  eopt.clock_hz = serial.front().clock_hz;
  eopt.t0 = serial.front().trace_t0;
  const auto om1 = introspect::openmetrics(harness::merged_telemetry(serial), eopt);
  const auto om4 = introspect::openmetrics(harness::merged_telemetry(parallel), eopt);
  EXPECT_EQ(om1, om4);
  EXPECT_NE(om1.find("hpmmap_zone_free_bytes"), std::string::npos);
  EXPECT_NE(om1.find("trial=\"2\""), std::string::npos);
  const auto csv1 = introspect::telemetry_csv(harness::merged_telemetry(serial), eopt);
  const auto csv4 = introspect::telemetry_csv(harness::merged_telemetry(parallel), eopt);
  EXPECT_EQ(csv1, csv4);
}

TEST(Sampler, RingBoundsAndCadence) {
  sim::Engine engine;
  os::NodeConfig cfg = script_config();
  cfg.hpmmap.reset(); // plain node: fixed series set
  os::Node node(engine, cfg);
  introspect::SamplerConfig scfg;
  scfg.interval = 100;
  scfg.max_samples = 8;
  introspect::TelemetrySampler sampler(engine, scfg);
  sampler.add_node(node);
  sampler.start();
  // A bare Node keeps kswapd rescheduled forever, so run() alone never
  // drains — stop just after the tick at t=2000 like the harness does.
  engine.schedule(2'001, [&engine] { engine.stop(); });
  engine.run();
  EXPECT_EQ(sampler.samples_taken(), 21u); // t=0,100,...,2000
  const std::vector<introspect::TimeSeries> series = sampler.take();
  ASSERT_FALSE(series.empty());
  for (const introspect::TimeSeries& s : series) {
    EXPECT_LE(s.points.size(), 8u);
    EXPECT_EQ(s.dropped, 13u); // 21 - 8
    const std::vector<introspect::TimePoint> pts = s.ordered();
    for (std::size_t i = 1; i < pts.size(); ++i) {
      EXPECT_EQ(pts[i].ts - pts[i - 1].ts, 100u); // chronological ring unwind
    }
    EXPECT_EQ(pts.back().ts, 2'000u);
  }
}

// --- exporters ----------------------------------------------------------

std::vector<introspect::TimeSeries> tiny_series() {
  introspect::TimeSeries gauge;
  gauge.metric = "hpmmap_zone_free_bytes";
  gauge.labels = "node=\"n0\",zone=\"0\"";
  gauge.type = "gauge";
  gauge.capacity = 4;
  gauge.append(0, 4096.0);
  gauge.append(1000, 2048.0);
  introspect::TimeSeries counter;
  counter.metric = "hpmmap_pgfault_total";
  counter.labels = "node=\"n0\"";
  counter.type = "counter";
  counter.capacity = 4;
  counter.append(1000, 17.0);
  return {gauge, counter};
}

TEST(Exporters, OpenMetricsShape) {
  trace::ExportOptions eopt;
  eopt.clock_hz = 1000.0; // 1 cycle = 1 ms
  const std::string out = introspect::openmetrics(tiny_series(), eopt);
  EXPECT_NE(out.find("# TYPE hpmmap_zone_free_bytes gauge\n"), std::string::npos);
  // Counter family drops the _total suffix; the sample keeps it.
  EXPECT_NE(out.find("# TYPE hpmmap_pgfault counter\n"), std::string::npos);
  EXPECT_NE(out.find("hpmmap_pgfault_total{node=\"n0\"} 17 1.000000000\n"),
            std::string::npos);
  EXPECT_NE(out.find("hpmmap_zone_free_bytes{node=\"n0\",zone=\"0\"} 4096 0.000000000\n"),
            std::string::npos);
  EXPECT_TRUE(out.ends_with("# EOF\n"));
}

TEST(Exporters, CsvShape) {
  trace::ExportOptions eopt;
  eopt.clock_hz = 1000.0;
  const std::string out = introspect::telemetry_csv(tiny_series(), eopt);
  EXPECT_TRUE(out.starts_with("metric,labels,ts_cycles,t_seconds,value\n"));
  // Labels flatten comma->semicolon so the CSV field stays unquoted.
  EXPECT_NE(out.find("hpmmap_zone_free_bytes,node=n0;zone=0,1000,1.000000000,2048\n"),
            std::string::npos);
}

TEST(Exporters, ChromeCountersSpliceIntoValidJson) {
  trace::ExportOptions eopt;
  eopt.clock_hz = 1'000'000.0; // 1 cycle = 1 us
  // No events at all: the counter objects must still form a valid array.
  const std::string out =
      introspect::chrome_json_with_counters({}, tiny_series(), eopt);
  EXPECT_TRUE(out.starts_with("["));
  EXPECT_TRUE(out.ends_with("\n]\n"));
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"hpmmap_zone_free_bytes{node=n0;zone=0}\""),
            std::string::npos);
  EXPECT_NE(out.find("\"args\":{\"value\":2048}"), std::string::npos);
  // Empty series: byte-identical to the plain exporter.
  EXPECT_EQ(introspect::chrome_json_with_counters({}, {}, eopt),
            trace::chrome_json({}, eopt));
}

// --- bench_diff ---------------------------------------------------------

constexpr std::string_view kBenchJson = R"({
  "bench": "mm_hotpath",
  "faults": 1000000,
  "faults_per_sec": 9.5e6,
  "baseline": { "faults_per_sec": 3.1e6 },
  "improvement_ratio": 3.0,
  "deterministic_match": true
})";

TEST(BenchDiff, ParsesFlattenedKeys) {
  const auto doc = introspect::parse_bench_json(kBenchJson);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->strings.at("bench"), "mm_hotpath");
  EXPECT_EQ(doc->numbers.at("faults"), 1e6);
  EXPECT_EQ(doc->numbers.at("baseline.faults_per_sec"), 3.1e6);
  EXPECT_TRUE(doc->bools.at("deterministic_match"));
  EXPECT_FALSE(introspect::parse_bench_json("{ not json").has_value());
  // An array's elements are keyed by their index.
  const auto arrays = introspect::parse_bench_json(R"({"cores": [1, 4], "none": []})");
  ASSERT_TRUE(arrays.has_value());
  EXPECT_EQ(arrays->numbers.at("cores.0"), 1.0);
  EXPECT_EQ(arrays->numbers.at("cores.1"), 4.0);
  EXPECT_EQ(arrays->numbers.size(), 2u);
}

TEST(BenchDiff, PassesWithinThreshold) {
  const auto base = introspect::parse_bench_json(kBenchJson);
  auto cur = base;
  cur->numbers["improvement_ratio"] = 2.8; // -6.7%, inside 10%
  cur->numbers["faults_per_sec"] = 1.0;    // absolute throughput: not gated
  const auto r = introspect::diff_bench(*base, *cur, 0.10);
  EXPECT_TRUE(r.pass);
  EXPECT_EQ(r.regressions(), 0u);
}

TEST(BenchDiff, FailsBeyondThreshold) {
  const auto base = introspect::parse_bench_json(kBenchJson);
  auto cur = base;
  cur->numbers["improvement_ratio"] = 2.0; // -33%
  const auto r = introspect::diff_bench(*base, *cur, 0.10);
  EXPECT_FALSE(r.pass);
  EXPECT_EQ(r.regressions(), 1u);
  const std::string report = introspect::format_diff(r, "mm");
  EXPECT_NE(report.find("REGRESSED"), std::string::npos);
  EXPECT_NE(report.find("FAIL"), std::string::npos);
}

TEST(BenchDiff, MissingGatedMetricFails) {
  const auto base = introspect::parse_bench_json(kBenchJson);
  auto cur = base;
  cur->numbers.erase("improvement_ratio");
  const auto r = introspect::diff_bench(*base, *cur, 0.10);
  EXPECT_FALSE(r.pass);
}

TEST(BenchDiff, FalseDeterminismFlagFails) {
  const auto base = introspect::parse_bench_json(kBenchJson);
  auto cur = base;
  cur->bools["deterministic_match"] = false;
  const auto r = introspect::diff_bench(*base, *cur, 0.10);
  EXPECT_FALSE(r.pass);
}

TEST(BenchDiff, ExplicitGateKeysOverrideDefaults) {
  const auto base = introspect::parse_bench_json(kBenchJson);
  auto cur = base;
  cur->numbers["improvement_ratio"] = 1.0; // huge drop, but not gated below
  cur->numbers["faults"] = 1.0;            // gated explicitly, -100%
  const auto r = introspect::diff_bench(*base, *cur, 0.10, {"faults"});
  EXPECT_FALSE(r.pass);
  EXPECT_EQ(r.regressions(), 1u);
  for (const introspect::MetricDelta& d : r.deltas) {
    EXPECT_EQ(d.gated, d.key == "faults") << d.key;
  }
}

TEST(BenchDiff, MedianOfRoundsIsPerKey) {
  // The rounds a host-rate A/B alternates: one slow phase must not move
  // the gated value.
  std::vector<introspect::BenchDoc> rounds(3, *introspect::parse_bench_json(kBenchJson));
  rounds[0].numbers["faults_per_sec"] = 6.69e6;
  rounds[1].numbers["faults_per_sec"] = 3.68e6;
  rounds[2].numbers["faults_per_sec"] = 6.50e6;
  rounds[1].numbers["only_here"] = 7.0;
  rounds[2].bools["deterministic_match"] = false;
  const introspect::BenchDoc m = introspect::median_of(rounds);
  EXPECT_EQ(m.numbers.at("faults_per_sec"), 6.50e6);
  EXPECT_EQ(m.numbers.at("only_here"), 7.0); // a key one round reports
  EXPECT_EQ(m.numbers.at("faults"), 1e6);
  EXPECT_EQ(m.strings.at("bench"), "mm_hotpath");
  EXPECT_FALSE(m.bools.at("deterministic_match")); // any false round fails
  // An even count takes the mean of the middle two.
  rounds.pop_back();
  EXPECT_EQ(introspect::median_of(rounds).numbers.at("faults_per_sec"), (3.68e6 + 6.69e6) / 2);
}

TEST(BenchDiff, ThresholdMustParseCompletelyInsideZeroToOne) {
  EXPECT_FALSE(introspect::parse_threshold("abc").has_value());
  EXPECT_FALSE(introspect::parse_threshold("-0.1").has_value());
  EXPECT_FALSE(introspect::parse_threshold("1").has_value());
  EXPECT_FALSE(introspect::parse_threshold("10").has_value()); // 10% as 10 gates nothing
  EXPECT_FALSE(introspect::parse_threshold("0.1x").has_value());
  EXPECT_FALSE(introspect::parse_threshold("").has_value());
  EXPECT_EQ(introspect::parse_threshold("0"), 0.0);
  EXPECT_EQ(introspect::parse_threshold("0.25"), 0.25);
}

} // namespace
} // namespace hpmmap
