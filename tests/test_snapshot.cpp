// Snapshot/restore correctness (DESIGN.md §12): a restored world is the
// captured world. The headline checks: MmAuditor structural equality on
// restore, byte-identical procfs renderings across a capture/restore
// round-trip, straight runs vs snapshot-resumed runs byte-identical for
// all three managers (trace streams included), save/load file
// round-trips and save/load fixpoints, corrupt image files failing with
// the loader's message, the amortized-aging sweeps (single node and
// cluster) matching the plain batch bit for bit, and deterministic
// time-travel: restore the capture preceding a flight-recorder anomaly
// and single-step back to the exact event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "harness/batch.hpp"
#include "harness/cluster.hpp"
#include "harness/detail.hpp"
#include "harness/experiment.hpp"
#include "introspect/procfs.hpp"
#include "linux_mm/smp.hpp"
#include "os/node.hpp"
#include "sim/engine.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "verify/audit.hpp"
#include "workloads/kernel_build.hpp"

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
    EXPECT_EQ(a[i].ts, b[i].ts) << "event " << i;
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

/// Full-result equality: every field exact, doubles compared with ==.
/// The resumed run must replay the straight run's event stream, so
/// nothing — not even a stdev in the last ulp — may differ.
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
  EXPECT_EQ(a.hpmmap_spurious_faults, b.hpmmap_spurious_faults);
  EXPECT_EQ(a.events_fired, b.events_fired);
  for (std::size_t i = 0; i < verify::kInjectPointCount; ++i) {
    EXPECT_EQ(a.injected[i].calls, b.injected[i].calls) << "point " << i;
    EXPECT_EQ(a.injected[i].fired, b.injected[i].fired) << "point " << i;
  }
  EXPECT_EQ(a.audit_checks, b.audit_checks);
  EXPECT_EQ(a.audit_violations, b.audit_violations);
  EXPECT_EQ(a.audit_report, b.audit_report);
  EXPECT_EQ(a.thp_fault_fallbacks, b.thp_fault_fallbacks);
  EXPECT_EQ(a.thp_merges_aborted, b.thp_merges_aborted);
  EXPECT_EQ(a.hugetlb_pool_exhausted, b.hugetlb_pool_exhausted);
  EXPECT_EQ(a.procfs_text, b.procfs_text);
  expect_events_equal(a.events, b.events);
}

void expect_points_equal(const std::vector<harness::SeriesPoint>& a,
                         const std::vector<harness::SeriesPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mean_seconds, b[i].mean_seconds) << "point " << i;
    EXPECT_EQ(a[i].stdev_seconds, b[i].stdev_seconds) << "point " << i;
    EXPECT_EQ(a[i].trials, b[i].trials) << "point " << i;
    EXPECT_EQ(a[i].events, b[i].events) << "point " << i;
    EXPECT_EQ(a[i].fault_counts, b[i].fault_counts) << "point " << i;
    EXPECT_EQ(a[i].fault_cycles, b[i].fault_cycles) << "point " << i;
  }
}

// --- straight run vs snapshot-resumed run, all three managers -------------

class SnapshotManagers : public ::testing::TestWithParam<harness::Manager> {};

TEST_P(SnapshotManagers, ResumedRunIsByteIdenticalToStraightRun) {
  const harness::SingleNodeRunConfig cfg =
      quick("miniMD", GetParam(), workloads::profile_a(2), 2);
  const harness::RunResult straight = harness::run_single_node(cfg);
  const snapshot::WorldImage image = harness::capture_single_node(cfg);
  const harness::RunResult resumed = harness::run_single_node(cfg, image);
  expect_run_equal(straight, resumed);
}

INSTANTIATE_TEST_SUITE_P(Managers, SnapshotManagers,
                         ::testing::Values(harness::Manager::kThp,
                                           harness::Manager::kHugetlbfs,
                                           harness::Manager::kHpmmap));

TEST(SnapshotResume, TracedRunReplaysTheExactEventStream) {
  harness::SingleNodeRunConfig cfg =
      quick("HPCCG", harness::Manager::kThp, workloads::profile_a(2), 2);
  cfg.trace.categories = static_cast<std::uint32_t>(trace::Category::kFault) |
                         static_cast<std::uint32_t>(trace::Category::kThp);
  cfg.introspect.procfs_dump = true;
  const harness::RunResult straight = harness::run_single_node(cfg);
  const snapshot::WorldImage image = harness::capture_single_node(cfg);
  const harness::RunResult resumed = harness::run_single_node(cfg, image);
  ASSERT_FALSE(straight.events.empty());
  expect_run_equal(straight, resumed);
}

TEST(SnapshotResume, OneCaptureFansOutToDifferentMeasurementConfigs) {
  // The amortization contract: app, app_cores and duration_scale may
  // differ between capture and resume; each resumed run still matches
  // its own straight run exactly.
  harness::SingleNodeRunConfig base =
      quick("miniMD", harness::Manager::kHpmmap, workloads::profile_a(2), 2);
  const snapshot::WorldImage image = harness::capture_single_node(base);
  harness::SingleNodeRunConfig other = base;
  other.app = "HPCCG";
  other.app_cores = 4;
  other.duration_scale = 0.03;
  expect_run_equal(harness::run_single_node(base), harness::run_single_node(base, image));
  expect_run_equal(harness::run_single_node(other),
                   harness::run_single_node(other, image));
}

TEST(SnapshotResume, ScalingRunResumesExactly) {
  harness::ScalingRunConfig cfg;
  cfg.app = "HPCCG";
  cfg.manager = harness::Manager::kThp;
  cfg.commodity = workloads::profile_c();
  cfg.nodes = 2;
  cfg.ranks_per_node = 2;
  cfg.seed = 3;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;
  const harness::RunResult straight = harness::run_cluster({cfg});
  const harness::ClusterImage image = harness::capture_scaling(cfg);
  const harness::RunResult resumed = harness::run_cluster({cfg}, image);
  expect_run_equal(straight, resumed);
}

// --- node-level structural equality ---------------------------------------

os::NodeConfig node_config(std::uint64_t seed, bool aged) {
  os::NodeConfig cfg;
  cfg.machine = hw::dell_r415();
  cfg.machine.ram_bytes = 4 * GiB;
  cfg.seed = seed;
  cfg.aged_boot = aged;
  core::ModuleConfig mod;
  mod.offline_bytes_per_zone = 512 * MiB;
  cfg.hpmmap = mod;
  cfg.hugetlb_pool_per_zone = 128 * MiB;
  return cfg;
}

/// Boot an aged node, churn it through a few processes of every policy,
/// and let the daemons run — the state a capture should preserve.
void churn(sim::Engine& engine, os::Node& node) {
  static constexpr os::MmPolicy kPolicies[] = {
      os::MmPolicy::kLinuxThp, os::MmPolicy::kLinuxPlain, os::MmPolicy::kHugetlbfs,
      os::MmPolicy::kHpmmap};
  Rng rng(99);
  std::vector<os::Process*> procs;
  for (int i = 0; i < 4; ++i) {
    procs.push_back(&node.spawn("churn" + std::to_string(i), kPolicies[i],
                                static_cast<std::int32_t>(i % 8), 1.0,
                                mm::AddressSpace::ZonePolicy::kSingle, 0));
  }
  for (int round = 0; round < 12; ++round) {
    for (os::Process* p : procs) {
      const std::uint64_t len = align_up(rng.uniform(1, 16) * 512 * KiB, kLargePageSize);
      const auto out = node.sys_mmap(*p, len, kProtRW, os::Node::Segment::kHeapData);
      if (out.err == Errno::kOk) {
        (void)node.touch_range(*p, Range{out.addr, out.addr + len});
      }
    }
    engine.run_until(engine.now() + 20'000'000);
  }
  node.exit_process(*procs[1]); // leave a dead pid behind
  engine.run_until(engine.now() + 200'000'000);
}

TEST(SnapshotNode, RestoredNodePassesAuditAndRendersIdenticalProcfs) {
  sim::Engine engine;
  os::Node node(engine, node_config(11, /*aged=*/true));
  churn(engine, node);

  const std::string before = introspect::procfs_dump(node);
  const snapshot::WorldImage image = snapshot::capture_world(engine, {&node});
  // Capture reads only: the live node renders the same bytes afterwards.
  EXPECT_EQ(introspect::procfs_dump(node), before);
  verify::MmAuditor source_auditor(node);
  const verify::AuditReport source_report = source_auditor.run();
  ASSERT_TRUE(source_report.ok()) << source_report.summary();

  // Restore into a fresh, *non-aged* boot — the harness resume path.
  sim::Engine engine2;
  os::Node node2(engine2, node_config(11, /*aged=*/false));
  snapshot::restore_world(image, engine2, {&node2});

  EXPECT_EQ(engine2.now(), engine.now());
  EXPECT_EQ(introspect::procfs_dump(node2), before);
  verify::MmAuditor auditor(node2);
  const verify::AuditReport report = auditor.run();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.checks, source_report.checks);
}

TEST(SnapshotNode, SaveLoadRoundTripsTheImageFile) {
  sim::Engine engine;
  os::Node node(engine, node_config(23, /*aged=*/true));
  churn(engine, node);
  const std::string before = introspect::procfs_dump(node);
  const snapshot::WorldImage image = snapshot::capture_world(engine, {&node});

  const std::string path = "/tmp/hpmmap_test_snapshot.img";
  snapshot::save(image, path);
  const snapshot::WorldImage loaded = snapshot::load(path);
  std::remove(path.c_str());

  sim::Engine engine2;
  os::Node node2(engine2, node_config(23, /*aged=*/false));
  snapshot::restore_world(loaded, engine2, {&node2});
  EXPECT_EQ(introspect::procfs_dump(node2), before);
  verify::MmAuditor auditor(node2);
  const verify::AuditReport report = auditor.run();
  EXPECT_TRUE(report.ok()) << report.summary();

  // The restored world keeps evolving identically: run both engines
  // forward and compare the rendering again.
  engine.run_until(engine.now() + 500'000'000);
  engine2.run_until(engine2.now() + 500'000'000);
  EXPECT_EQ(introspect::procfs_dump(node2), introspect::procfs_dump(node));
}

// --- per-CPU SMP state ------------------------------------------------------
//
// An SmpDomain's state is all release stamps and per-CPU frame lists; a
// capture taken mid-contention (locks held into the future, pcp lists
// warm, shootdown IPIs deferred) must round-trip exactly, or the resumed
// run's waits diverge from the uninterrupted run's. Byte-identity of the
// serialized images is the strongest equality the format offers, so the
// checks below compare save() output bit for bit.

os::NodeConfig smp_node_config(std::uint64_t seed) {
  os::NodeConfig cfg;
  cfg.machine = hw::dell_r415();
  cfg.machine.ram_bytes = 4 * GiB;
  cfg.seed = seed;
  cfg.aged_boot = false;
  cfg.thp_enabled = false;
  mm::SmpConfig smp;
  smp.cores = 4;
  cfg.smp = smp;
  return cfg;
}

/// One round of four-thread churn on a shared process: each core faults
/// its own quarter of a fresh slab (alloc_small refills the pcp lists),
/// then the previous round's slab is unmapped (free_small drains the
/// lists through their watermark, note_unmap leaves deferred shootdown
/// pages pending). Pure syscalls, no armed events — the same sequence
/// applies identically to an original and a restored world.
void smp_churn_round(os::Node& node, os::Process& p, std::vector<Addr>& slabs, int round) {
  const auto out = node.sys_mmap(p, 4 * MiB, kProtRW, os::Node::Segment::kHeapData,
                                 round % 4);
  ASSERT_EQ(out.err, Errno::kOk);
  for (std::int32_t c = 0; c < 4; ++c) {
    const Addr begin = out.addr + static_cast<Addr>(c) * MiB;
    (void)node.touch_range(p, Range{begin, begin + 1 * MiB}, c);
  }
  slabs.push_back(out.addr);
  if (slabs.size() >= 2) {
    const Addr victim = slabs[slabs.size() - 2];
    (void)node.sys_munmap(p, victim, 4 * MiB, (round + 1) % 4);
    slabs.erase(slabs.end() - 2);
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(SnapshotSmp, MidContentionCaptureRoundTripsByteIdentical) {
  sim::Engine engine;
  os::Node node(engine, smp_node_config(41));
  os::Process& p = node.spawn("smp", os::MmPolicy::kLinuxPlain, 0, 1.0,
                              mm::AddressSpace::ZonePolicy::kSingle, 0);
  std::vector<Addr> slabs;
  for (int round = 0; round < 6; ++round) {
    smp_churn_round(node, p, slabs, round);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // The capture must land mid-contention: locks were fought over, frames
  // are parked per-CPU, and a shootdown batch is still deferred.
  const mm::SmpDomain& smp = *node.smp();
  ASSERT_GT(smp.stats().total_lock_wait(), 0u);
  ASSERT_GT(smp.pcp_cached_bytes(0), 0u);

  const snapshot::WorldImage image = snapshot::capture_world(engine, {&node});
  const std::string path_a = "/tmp/hpmmap_test_smp_a.img";
  const std::string path_b = "/tmp/hpmmap_test_smp_b.img";
  snapshot::save(image, path_a);
  const snapshot::WorldImage loaded = snapshot::load(path_a);

  sim::Engine engine2;
  os::Node node2(engine2, smp_node_config(41));
  snapshot::restore_world(loaded, engine2, {&node2});

  // Re-capturing the restored world serializes to the same bytes: every
  // release stamp, list entry and counter survived the round trip. (The
  // audit comes after the save — it bumps telemetry counters that the
  // snapshot captures.)
  snapshot::save(snapshot::capture_world(engine2, {&node2}), path_b);
  EXPECT_EQ(file_bytes(path_a), file_bytes(path_b));
  const verify::AuditReport report = verify::MmAuditor(node2).run();
  EXPECT_TRUE(report.ok()) << report.summary();
  if (!::testing::Test::HasFailure()) {
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
  }
}

TEST(SnapshotSmp, CaptureCyclesInterleavedWithPcpChurnStayExact) {
  // Stress walk: capture between every churn round (each round refills
  // and drains pcp lists and moves the shootdown backlog), restore each
  // capture into a fresh world, and drive BOTH worlds through the next
  // round. The restored world must keep producing the original's exact
  // bytes — proving the captured SMP state actually steers future
  // behavior rather than merely surviving serialization.
  sim::Engine engine;
  os::Node node(engine, smp_node_config(43));
  os::Process& p = node.spawn("smp", os::MmPolicy::kLinuxPlain, 0, 1.0,
                              mm::AddressSpace::ZonePolicy::kSingle, 0);
  std::vector<Addr> slabs;
  const std::string path_a = "/tmp/hpmmap_test_smp_walk_a.img";
  const std::string path_b = "/tmp/hpmmap_test_smp_walk_b.img";
  for (int round = 0; round < 5; ++round) {
    smp_churn_round(node, p, slabs, round);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    const snapshot::WorldImage image = snapshot::capture_world(engine, {&node});

    sim::Engine engine2;
    os::Node node2(engine2, smp_node_config(43));
    snapshot::restore_world(image, engine2, {&node2});
    os::Process* p2 = nullptr;
    node2.for_each_process([&](const os::Process& q) {
      if (q.pid() == p.pid()) {
        p2 = const_cast<os::Process*>(&q);
      }
    });
    ASSERT_NE(p2, nullptr);

    // Same next round on both worlds, then compare their captures.
    std::vector<Addr> slabs2 = slabs;
    smp_churn_round(node, p, slabs, round + 1);
    smp_churn_round(node2, *p2, slabs2, round + 1);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    snapshot::save(snapshot::capture_world(engine, {&node}), path_a);
    snapshot::save(snapshot::capture_world(engine2, {&node2}), path_b);
    ASSERT_EQ(file_bytes(path_a), file_bytes(path_b)) << "diverged after round " << round;

    // The walk continues on the original only; restored worlds are
    // discarded, so the original now leads by one round.
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// --- the image file: save/load fixpoint and corrupt-file rejection --------
//
// save(load(save(img))) must reproduce save(img) byte for byte: every
// array the serializer moves as one raw run (mem_map, buddy bitmaps,
// page tables, SMP stamps, pcp lists, P2 markers, ...) comes back to the
// same bytes. Each loaded world must also restore audit-clean.

std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + "hpmmap_test_" + stem + ".img";
}

/// Save, load, save again; expect identical files and hand back the
/// loaded image.
snapshot::WorldImage expect_save_load_fixpoint(const snapshot::WorldImage& image,
                                               const std::string& stem) {
  const std::string first = temp_path(stem + "_first");
  const std::string second = temp_path(stem + "_second");
  snapshot::save(image, first);
  snapshot::WorldImage loaded = snapshot::load(first);
  snapshot::save(loaded, second);
  const std::string a = file_bytes(first);
  const std::string b = file_bytes(second);
  EXPECT_GT(a.size(), 0u);
  EXPECT_TRUE(a == b) << stem << ": " << a.size() << " vs " << b.size() << " bytes";
  std::remove(first.c_str());
  std::remove(second.c_str());
  return loaded;
}

class SnapshotFileFixpoint : public ::testing::TestWithParam<harness::Manager> {};

TEST_P(SnapshotFileFixpoint, AgedNodeImageIsASaveLoadFixpoint) {
  harness::SingleNodeRunConfig cfg =
      quick("miniMD", GetParam(), workloads::profile_a(2), 2);
  cfg.verify.audit = true;
  const snapshot::WorldImage image = harness::capture_single_node(cfg);
  const snapshot::WorldImage loaded =
      expect_save_load_fixpoint(image, "fixpoint_" + std::to_string(static_cast<int>(GetParam())));
  const harness::RunResult resumed = harness::run_single_node(cfg, loaded);
  EXPECT_GT(resumed.audit_checks, 0u);
  EXPECT_EQ(resumed.audit_violations, 0u) << resumed.audit_report;
}

INSTANTIATE_TEST_SUITE_P(Managers, SnapshotFileFixpoint,
                         ::testing::Values(harness::Manager::kThp,
                                           harness::Manager::kHugetlbfs,
                                           harness::Manager::kHpmmap));

TEST(SnapshotFileFixpointServer, CapturedServerImageIsASaveLoadFixpoint) {
  harness::ServerRunConfig cfg;
  cfg.manager = harness::Manager::kThp;
  cfg.seed = 77;
  cfg.arrival.mean_rps = 4000.0;
  cfg.arrival.duration_seconds = 0.1;
  cfg.service.workers = 2;
  cfg.service.session_table_bytes = 64 * MiB;
  cfg.service.object_count = 64;
  cfg.commodity = workloads::profile_a(2);
  cfg.verify.audit = true;
  const snapshot::WorldImage image = harness::capture_server(cfg);
  const snapshot::WorldImage loaded = expect_save_load_fixpoint(image, "fixpoint_server");
  const harness::ServerRunResult resumed = harness::run_server(cfg, loaded);
  EXPECT_GT(resumed.server.completed, 0u);
  EXPECT_GT(resumed.audit_checks, 0u);
  EXPECT_EQ(resumed.audit_violations, 0u);
}

TEST(SnapshotSmp, MidContentionImageIsASaveLoadFixpoint) {
  sim::Engine engine;
  os::Node node(engine, smp_node_config(47));
  os::Process& p = node.spawn("smp", os::MmPolicy::kLinuxPlain, 0, 1.0,
                              mm::AddressSpace::ZonePolicy::kSingle, 0);
  std::vector<Addr> slabs;
  for (int round = 0; round < 6; ++round) {
    smp_churn_round(node, p, slabs, round);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  ASSERT_GT(node.smp()->stats().total_lock_wait(), 0u);
  ASSERT_GT(node.smp()->pcp_cached_bytes(0), 0u);
  const snapshot::WorldImage loaded =
      expect_save_load_fixpoint(snapshot::capture_world(engine, {&node}), "fixpoint_smp");

  sim::Engine engine2;
  os::Node node2(engine2, smp_node_config(47));
  snapshot::restore_world(loaded, engine2, {&node2});
  const verify::AuditReport report = verify::MmAuditor(node2).run();
  EXPECT_GT(report.checks, 0u);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// --- restore -> capture fixpoint --------------------------------------------
//
// Capturing a freshly restored world must save to the restored image's
// bytes. A field that restore drops, or that capture reads from somewhere
// restore does not write, shows up here as a differing byte; the
// save/load fixpoints above never run capture or restore and cannot see it.

/// A fresh, unaged restore target shaped like a captured world: the same
/// node config with the profile's kernel builds constructed but not
/// started (their seeds do not matter; restore overwrites them). The
/// configs below mirror the harness worlds' boots (harness/
/// experiment.cpp, harness/cluster.cpp); a drift trips restore's
/// fingerprint or offlined-range assert.
struct RestoreTarget {
  sim::Engine engine;
  os::Node node;
  std::vector<std::unique_ptr<workloads::KernelBuild>> builds;

  RestoreTarget(os::NodeConfig cfg, const workloads::CommodityProfile& commodity)
      : node(engine, unaged(std::move(cfg))) {
    for (std::uint32_t b = 0; b < commodity.builds; ++b) {
      workloads::KernelBuildConfig bc;
      bc.jobs = commodity.jobs_per_build;
      builds.push_back(std::make_unique<workloads::KernelBuild>(node, bc, Rng(b)));
    }
  }
  [[nodiscard]] std::vector<snapshot::BuildRef> refs() const {
    std::vector<snapshot::BuildRef> out;
    for (const auto& b : builds) {
      out.push_back({b.get(), 0});
    }
    return out;
  }
  static os::NodeConfig unaged(os::NodeConfig cfg) {
    cfg.aged_boot = false;
    return cfg;
  }
};

void expect_restore_capture_fixpoint(const snapshot::WorldImage& image, RestoreTarget& target,
                                     const std::string& stem) {
  snapshot::restore_world(image, target.engine, {&target.node}, target.refs());
  const std::string restored = temp_path(stem + "_restored");
  const std::string recaptured = temp_path(stem + "_recaptured");
  snapshot::save(image, restored);
  snapshot::save(snapshot::capture_world(target.engine, {&target.node}, target.refs()),
                 recaptured);
  const std::string a = file_bytes(restored);
  const std::string b = file_bytes(recaptured);
  const auto diverge = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  EXPECT_TRUE(a == b) << stem << ": " << a.size() << " vs " << b.size()
                      << " bytes, first difference at byte " << (diverge.first - a.begin());
  std::remove(restored.c_str());
  std::remove(recaptured.c_str());
}

/// The single-node and server harness boots: an r415 with the §IV
/// reservation for the manager.
os::NodeConfig r415_config(harness::Manager mgr, std::uint64_t pool, std::uint64_t seed) {
  return harness::detail::node_config_for(mgr, hw::dell_r415(), pool, seed, "r415");
}

class SnapshotRestoreFixpoint
    : public ::testing::TestWithParam<std::tuple<harness::Manager, bool>> {};

TEST_P(SnapshotRestoreFixpoint, AgedNodeRecapturesItsOwnBytes) {
  const auto [mgr, profile_b] = GetParam();
  const harness::SingleNodeRunConfig cfg =
      quick("miniMD", mgr, profile_b ? workloads::profile_b(2) : workloads::profile_a(2), 2);
  // SingleNodeWorld's reservation: 6 GiB scaled by the footprint.
  const std::uint64_t pool =
      align_up(static_cast<std::uint64_t>(static_cast<double>(6 * GiB) * cfg.footprint_scale),
               kMemorySectionSize);
  RestoreTarget target(r415_config(mgr, pool, cfg.seed), cfg.commodity);
  expect_restore_capture_fixpoint(harness::capture_single_node(cfg), target,
                                  "recapture_" + std::to_string(static_cast<int>(mgr)) +
                                      (profile_b ? "_b" : "_a"));
}

INSTANTIATE_TEST_SUITE_P(ManagersByProfile, SnapshotRestoreFixpoint,
                         ::testing::Combine(::testing::Values(harness::Manager::kThp,
                                                              harness::Manager::kHugetlbfs,
                                                              harness::Manager::kHpmmap),
                                            ::testing::Bool()));

TEST(SnapshotRestoreFixpointWorlds, ServerWorldRecapturesItsOwnBytes) {
  harness::ServerRunConfig cfg;
  cfg.manager = harness::Manager::kHpmmap;
  cfg.seed = 78;
  cfg.commodity = workloads::profile_a(2);
  RestoreTarget target(r415_config(cfg.manager, 6 * GiB, cfg.seed), cfg.commodity);
  expect_restore_capture_fixpoint(harness::capture_server(cfg), target, "recapture_server");
}

TEST(SnapshotRestoreFixpointWorlds, MidContentionSmpWorldRecapturesItsOwnBytes) {
  sim::Engine engine;
  os::Node node(engine, smp_node_config(49));
  os::Process& p = node.spawn("smp", os::MmPolicy::kLinuxPlain, 0, 1.0,
                              mm::AddressSpace::ZonePolicy::kSingle, 0);
  std::vector<Addr> slabs;
  for (int round = 0; round < 6; ++round) {
    smp_churn_round(node, p, slabs, round);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  ASSERT_GT(node.smp()->stats().total_lock_wait(), 0u);
  RestoreTarget target(smp_node_config(49), workloads::no_competition());
  expect_restore_capture_fixpoint(snapshot::capture_world(engine, {&node}), target,
                                  "recapture_smp");
}

TEST(SnapshotRestoreFixpointWorlds, ShrunkSwapSetRecapturesItsOwnBytes) {
  // A swap set that grew to 4000 pages and shrank to 10 keeps its large
  // bucket array; the restored set is rebuilt small, so the two iterate
  // the same 10 pages in different orders.
  sim::Engine engine;
  os::Node node(engine, node_config(13, /*aged=*/false));
  mm::AddressSpace& as = node.spawn("swapper", os::MmPolicy::kLinuxPlain, 0, 1.0,
                                    mm::AddressSpace::ZonePolicy::kSingle, 0)
                             .address_space();
  for (Addr page = 0; page < 4000; ++page) {
    as.mark_swapped(0x10000000 + page * kSmallPageSize);
  }
  for (Addr page = 0; page < 3990; ++page) {
    ASSERT_TRUE(as.take_swapped(0x10000000 + page * kSmallPageSize));
  }
  ASSERT_EQ(as.swapped_pages(), 10u);
  RestoreTarget target(node_config(13, /*aged=*/false), workloads::no_competition());
  expect_restore_capture_fixpoint(snapshot::capture_world(engine, {&node}), target,
                                  "recapture_swap");
}

TEST(SnapshotRestoreFixpointWorlds, ClusterNodeImagesRecaptureTheirOwnBytes) {
  harness::ScalingRunConfig cfg;
  cfg.app = "HPCCG";
  cfg.manager = harness::Manager::kHpmmap;
  cfg.commodity = workloads::profile_c();
  cfg.nodes = 2;
  cfg.ranks_per_node = 2;
  cfg.seed = 9;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;
  const harness::ClusterImage image = harness::capture_scaling(cfg);
  ASSERT_EQ(image.size(), 2u);
  for (std::uint32_t n = 0; n < 2; ++n) {
    // ClusterWorld's boot: a Sandia Xeon node, 10 GiB reserved per zone,
    // seeded per node.
    RestoreTarget target(harness::detail::node_config_for(cfg.manager, hw::sandia_xeon_node(),
                                                          10 * GiB, cfg.seed + 7919ull * n,
                                                          "xeon" + std::to_string(n)),
                         cfg.commodity);
    expect_restore_capture_fixpoint(image[n], target, "recapture_xeon" + std::to_string(n));
  }
}

// --- causal spans ----------------------------------------------------------

// Snapshot format v3: the flight-recorder image carries each event's
// causal span, so a capture taken mid-request restores with attribution
// intact (a span-free ring still loads byte-identically to v2 content).
TEST(SnapshotTrace, SpanCarryingEventsRoundTripThroughSaveLoad) {
  trace::recorder().set_capacity(1024);
  trace::enable(static_cast<std::uint32_t>(trace::Category::kHarness));
  trace::enable_spans(true);
  {
    trace::SpanScope outer(41);
    trace::instant(trace::Category::kHarness, "span.outer", 7, 2,
                   {trace::Arg::u64("k", 1)});
    {
      trace::SpanScope inner(42);
      trace::complete(trace::Category::kHarness, "span.inner", 100, 50, 7, 2,
                      {trace::Arg::str("who", "inner")});
    }
  }
  trace::instant(trace::Category::kHarness, "span.none", 7, 2);
  trace::enable_spans(false);
  trace::disable_all();

  sim::Engine engine;
  os::Node node(engine, node_config(5, /*aged=*/false));
  const snapshot::WorldImage image = snapshot::capture_world(engine, {&node});
  const std::string path = "/tmp/hpmmap_test_span_snapshot.img";
  snapshot::save(image, path);
  const snapshot::WorldImage loaded = snapshot::load(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.trace.ring.size(), image.trace.ring.size());
  std::uint32_t outer_span = 0, inner_span = 0, none_span = 99;
  for (std::size_t i = 0; i < loaded.trace.ring.size(); ++i) {
    const trace::Event& got = loaded.trace.ring[i];
    const trace::Event& want = image.trace.ring[i];
    EXPECT_EQ(got.span, want.span) << trace::describe(want);
    EXPECT_EQ(got.ts, want.ts);
    EXPECT_EQ(got.name(), want.name());
    if (got.name() == "span.outer") {
      outer_span = got.span;
    } else if (got.name() == "span.inner") {
      inner_span = got.span;
    } else if (got.name() == "span.none") {
      none_span = got.span;
    }
  }
  EXPECT_EQ(outer_span, 41u);
  EXPECT_EQ(inner_span, 42u); // the nested scope won while it was live
  EXPECT_EQ(none_span, 0u);   // emitted outside any scope
}

// --- amortized-aging sweep -------------------------------------------------

TEST(SnapshotSweep, SnapshottedTrialsMatchPlainBatchBitForBit) {
  std::vector<harness::SingleNodeRunConfig> configs;
  // Three members sharing one world (app / app_cores / duration differ)…
  configs.push_back(quick("miniMD", harness::Manager::kThp, workloads::profile_a(2), 2));
  configs.push_back(quick("HPCCG", harness::Manager::kThp, workloads::profile_a(2), 2));
  configs.push_back(quick("miniFE", harness::Manager::kThp, workloads::profile_a(2), 4));
  configs.back().duration_scale = 0.03;
  // …and a singleton (different manager) that must run straight.
  configs.push_back(quick("miniMD", harness::Manager::kHpmmap, workloads::profile_a(2), 2));
  const std::vector<harness::SeriesPoint> plain =
      harness::run_trials_batch(configs, /*trials=*/2, /*jobs=*/1);
  const std::vector<harness::SeriesPoint> snap =
      harness::run_trials_snapshotted(configs, /*trials=*/2, /*jobs=*/1);
  expect_points_equal(plain, snap);
  // Parallel fan-out folds identically too (the BatchRunner contract).
  expect_points_equal(plain, harness::run_trials_snapshotted(configs, 2, /*jobs=*/4));
}

TEST(SnapshotSweep, SnapshottedScalingTrialsMatchPlainBatchBitForBit) {
  // Fig 8's default mode: configs that differ only in app and duration
  // share one aged 2-node cluster per trial, captured as per-node images.
  const auto scaling = [](const std::string& app, harness::Manager mgr) {
    harness::ScalingRunConfig cfg;
    cfg.app = app;
    cfg.manager = mgr;
    cfg.commodity = workloads::profile_c();
    cfg.nodes = 2;
    cfg.ranks_per_node = 2;
    cfg.seed = 5;
    cfg.footprint_scale = 0.08;
    cfg.duration_scale = 0.05;
    cfg.warmup_seconds = 0.3;
    return cfg;
  };
  std::vector<harness::ScalingRunConfig> configs;
  configs.push_back(scaling("HPCCG", harness::Manager::kThp));
  configs.push_back(scaling("miniFE", harness::Manager::kThp));
  configs.push_back(scaling("LAMMPS", harness::Manager::kThp));
  configs.back().duration_scale = 0.03;
  configs.push_back(scaling("HPCCG", harness::Manager::kHpmmap));
  const std::vector<harness::SeriesPoint> plain =
      harness::run_trials_batch(configs, /*trials=*/2, /*jobs=*/1);
  expect_points_equal(plain, harness::run_trials_snapshotted(configs, 2, /*jobs=*/1));
  expect_points_equal(plain, harness::run_trials_snapshotted(configs, 2, /*jobs=*/4));
}

// --- corrupt image files ----------------------------------------------------
//
// The loader trusts nothing it reads: a file cut off anywhere, or a
// length word far larger than the bytes that follow, must fail with the
// loader's own message — never wrap a bounds check, never try to
// allocate terabytes, never escape as a C++ exception.

class SnapshotFileDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::Engine engine;
    os::Node node(engine, node_config(5, /*aged=*/false));
    node.spawn("victim", os::MmPolicy::kLinuxThp, 0, 1.0, mm::AddressSpace::ZonePolicy::kSingle,
               0);
    image_ = snapshot::capture_world(engine, {&node});
    // A marker event first in the ring, so its count word can be found.
    trace::Event marker;
    marker.ts = 0x0123456789abcdef;
    marker.dur = 0x0fedcba987654321;
    image_.trace.ring.insert(image_.trace.ring.begin(), marker);
    // Per-test file names: ctest runs these cases concurrently.
    path_ = temp_path(std::string("corrupt_") +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name());
    snapshot::save(image_, path_);
    bytes_ = file_bytes(path_);
    ASSERT_GT(bytes_.size(), 64u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  /// The image with the u64 at `offset` replaced by `value`.
  [[nodiscard]] std::string with_word(std::size_t offset, std::uint64_t value) const {
    std::string b = bytes_;
    std::memcpy(b.data() + offset, &value, sizeof value);
    return b;
  }
  /// Offset of the u64 `word` where the bytes `next` directly follow it.
  [[nodiscard]] std::size_t find_word(std::uint64_t word, const std::string& next) const {
    std::string needle(sizeof word, '\0');
    std::memcpy(needle.data(), &word, sizeof word);
    const std::size_t at = bytes_.find(needle + next);
    EXPECT_NE(at, std::string::npos);
    return at;
  }
  template <typename T>
  static std::string raw(const T& v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof v);
  }
  /// The first zone's mem_map meta length, followed by the meta bytes.
  [[nodiscard]] std::size_t meta_length_offset() const {
    const std::vector<std::uint8_t>& meta = image_.nodes.at(0).memory.zones.at(0).buddy.map.meta;
    return find_word(meta.size(), std::string(reinterpret_cast<const char*>(meta.data()), 64));
  }
  /// The node count, followed by the first node's RNG state.
  [[nodiscard]] std::size_t node_count_offset() const {
    return find_word(image_.nodes.size(), raw(image_.nodes.at(0).rng));
  }
  /// The process count, followed by the first process's pid and name.
  [[nodiscard]] std::size_t process_count_offset() const {
    const snapshot::ProcessImage& p = image_.nodes.at(0).processes.at(0);
    return find_word(image_.nodes.at(0).processes.size(),
                     raw(p.pid) + raw(std::uint64_t{p.name.size()}) + p.name);
  }
  /// The trace ring's count, followed by the marker's timestamps.
  [[nodiscard]] std::size_t ring_count_offset() const {
    const trace::Event& marker = image_.trace.ring.at(0);
    return find_word(image_.trace.ring.size(), raw(marker.ts) + raw(marker.dur));
  }

  snapshot::WorldImage image_;
  std::string bytes_;
  std::string path_;
};

TEST_F(SnapshotFileDeathTest, CutOffImagesFailWithTheLoaderMessage) {
  const std::size_t meta = meta_length_offset();
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{6}, std::size_t{12},
                                std::size_t{21}, meta + 4, meta + 8 + 1000,
                                bytes_.size() / 2, bytes_.size() - 1}) {
    write(bytes_.substr(0, cut));
    EXPECT_DEATH((void)snapshot::load(path_), "snapshot: truncated image file")
        << "cut at " << cut << " of " << bytes_.size();
  }
}

TEST_F(SnapshotFileDeathTest, OversizedLengthWordsFailWithTheLoaderMessage) {
  // Header: magic u32, version u32, fingerprint count u64 at 8, then the
  // first fingerprint key's string length at 16. Then number arrays (the
  // meta run, the shared link-slot length) and lists of records (nodes,
  // one node's processes, the trace ring), whose unit is derived.
  const std::size_t meta = meta_length_offset();
  const std::size_t length_words[] = {
      8,
      16,
      meta,
      meta + 8 + image_.nodes.at(0).memory.zones.at(0).buddy.map.meta.size(),
      node_count_offset(),
      process_count_offset(),
      ring_count_offset()};
  for (const std::size_t at : length_words) {
    for (const std::uint64_t bogus : {std::uint64_t{1} << 62, ~std::uint64_t{0} - 3}) {
      write(with_word(at, bogus));
      EXPECT_DEATH((void)snapshot::load(path_), "snapshot: truncated image file")
          << "length word at " << at << " set to " << bogus;
    }
  }
}

TEST_F(SnapshotFileDeathTest, OlderImageVersionIsRefused) {
  std::string b = bytes_;
  const std::uint32_t v3 = 3;
  std::memcpy(b.data() + 4, &v3, sizeof v3);
  write(b);
  EXPECT_DEATH((void)snapshot::load(path_), "snapshot: unsupported image version");
}

// An event record's owner indices come from the file, and the fingerprint
// does not cover them: restore must refuse a record naming a node, build
// or job slot the target world does not have, not index past a vector.
TEST(SnapshotRestoreDeathTest, EventRecordWithAnUnknownOwnerIsRefused) {
  for (const bool build_step : {false, true}) {
    sim::Engine engine;
    os::Node node(engine, node_config(5, /*aged=*/false));
    workloads::KernelBuildConfig bc;
    bc.jobs = 2;
    workloads::KernelBuild build(node, bc, Rng(3));
    build.start();
    engine.run_until(node.spec().cycles(0.5));
    snapshot::WorldImage image = snapshot::capture_world(engine, {&node}, {{&build, 0}});
    build.stop();
    // A node-owned record (kswapd or khugepaged), or a live job's step.
    const auto it = std::find_if(image.events.begin(), image.events.end(),
                                 [build_step](const snapshot::EventRecord& r) {
                                   return build_step ? r.kind == snapshot::EventKind::kBuildStep
                                                     : r.kind < snapshot::EventKind::kBuildSpawn;
                                 });
    ASSERT_NE(it, image.events.end());
    if (build_step) {
      it->aux = image.builds.at(0).jobs.size();
    } else {
      it->node_index = static_cast<std::uint32_t>(image.nodes.size());
    }
    const std::string path = temp_path(build_step ? "bad_job_slot" : "bad_node_index");
    snapshot::save(image, path);
    const snapshot::WorldImage loaded = snapshot::load(path);
    std::remove(path.c_str());

    sim::Engine target_engine;
    os::Node target(target_engine, node_config(5, /*aged=*/false));
    workloads::KernelBuild target_build(target, bc, Rng(3));
    EXPECT_DEATH(
        snapshot::restore_world(loaded, target_engine, {&target}, {{&target_build, 0}}),
        "snapshot: event record names an unknown owner")
        << (build_step ? "job slot" : "node index");
  }
}

// --- the v4 byte layout -----------------------------------------------------
//
// The fixpoint tests prove that save and load agree with each other; a
// change that reordered a field in both would still pass them. This
// image is built by hand, never captured, so simulator changes cannot
// move it: every list holds one or two entries, every has_* branch is
// on, and the trace event carries one argument of each kind. Its saved
// bytes are pinned in tests/golden/snapshot_v4_small.hex. A deliberate
// format change bumps kVersion and records a new golden.

snapshot::WorldImage hand_built_image() {
  using namespace snapshot;
  WorldImage w;
  w.fingerprint = {{"nodes", 1}, {"zones", 1}};
  w.engine = {.now = 5000, .next_seq = 9, .fired = 7, .cancelled = 1, .stopped = true};

  NodeImage n;
  n.rng = {1, 2, 3, 4};
  n.scheduler.threads = {{.core = 2, .weight = 1.5, .gen = 3, .live = true}};
  n.scheduler.free_slots = {4};
  n.scheduler.live_count = 1;
  n.scheduler.pinned_weight = {0.0, 0.0, 1.5};
  n.scheduler.unpinned_weight = 0.25;
  n.bw.entries = {{.consumer = 1, .zone = 0, .demand = 2.5}};
  n.bw.zone_demand = {2.5};
  n.bw.capacity = 10.0;
  n.bw.next_id = 2;

  ZoneImage z;
  z.buddy.range = {0x10000, 0x90000};
  z.buddy.max_order = 10;
  z.buddy.free_bytes = 0x8000;
  z.buddy.lists = {{.bits = {0x5, 0x0}, .summary = {0x1}, .count = 2, .scan_hint = 1}};
  z.buddy.map.range = {0x10000, 0x90000};
  z.buddy.map.meta = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  z.buddy.map.slot_key = {0xffffffff, 3};
  z.buddy.map.slot_next = {0xffffffff, 0xfffffffe};
  z.buddy.map.slot_prev = {0xffffffff, 0xfffffffd};
  z.buddy.map.link_count = 1;
  z.buddy.corrupt_blocks = {{.addr = 0x20000, .order = 1}};
  z.buddy.stats = {.allocs = 11, .frees = 12, .split_steps = 13, .merge_steps = 14,
                   .failed_allocs = 15};
  z.cache = {.head = 3, .tail = 4, .count = 2, .cached_bytes = 0x2000, .free_floor = 0x1000,
             .dirty_fraction = 0.125, .grow_count = 6};
  z.online_bytes = 0x80000;
  z.compact_cursor = 0x30000;
  z.compact_defer = 2;
  n.memory.rng = {5, 6, 7, 8};
  n.memory.zones = {z};

  n.has_hugetlb = true;
  n.hugetlb.pool = {{.head = 1, .count = 2}};
  n.hugetlb.total = {4};
  n.hugetlb.stats = {.pool_pages_total = 4, .faults_served = 2, .pool_exhausted = 1};

  n.has_module = true;
  n.module.rng = {9, 10, 11, 12};
  n.module.offlined = {{Range{0x40000, 0x60000}}};
  BuddyImage kitten;
  kitten.range = {0x40000, 0x60000};
  kitten.max_order = 9;
  kitten.map.meta = {7};
  kitten.map.slot_key = {0xffffffff};
  kitten.map.slot_next = {0xffffffff};
  kitten.map.slot_prev = {0xffffffff};
  n.module.kitten_zones = {{kitten}};
  n.module.kitten_stats = {.allocs = 21, .frees = 22, .failed = 23};
  n.module.registry_slots = {{.state = 1, .pid = 1001, .context = 0}};
  n.module.registry_size = 1;
  n.module.registry_tombstones = 0;
  n.module.contexts = {{.pid = 1001, .vmas = {}, .mmap_cursor = 0x50000, .heap_base = 0x44000,
                        .heap_break = 0x46000, .live = true}};
  n.module.stats.registered = 1;

  n.has_thp = true;
  n.thp.processes = {1000};
  n.thp.enter_queue = {{.pid = 1000, .addr = 0x200000}};
  n.thp.inflight = {{.pid = 1000, .addr = 0x400000}};
  n.thp.scan_rr = 1;
  n.thp.scan_cursor = 0x600000;
  n.thp.scan_period = 100;
  n.thp.last_scan = 4000;
  n.thp.running = true;
  n.thp.pending_collapses = {
      {.token = 1, .pid = 1000, .region = 0x200000, .mapped_small = 3}};
  n.thp.pending_merges = {{.token = 2, .pid = 1000, .region = 0x400000, .huge_phys = 0x70000}};
  n.thp.next_token = 3;
  n.thp.stats.merges_completed = 5;

  n.has_smp = true;
  n.smp.zone_lock_free_at = {11};
  n.smp.cpu_stall = {12, 13};
  n.smp.mms = {{.pid = 1000, .writer_free_at = 14, .readers_free_at = 15,
                .pt_shard_free_at = {16}, .pending_shootdown_pages = 2}};
  n.smp.pcp = {{0x31000, 0x32000}, {}};
  n.smp.stats.zone_lock_wait = 17;

  ProcessImage app;
  app.pid = 1000;
  app.name = "app";
  app.policy = 1;
  app.as.pid = 1000;
  app.as.pt.slots = {0x8000000000000003, 0};
  app.as.pt.used = {1};
  app.as.pt.free_nodes = {1};
  app.as.pt.mix = {.bytes_4k = 0x1000, .bytes_2m = 0x200000, .bytes_1g = 0};
  app.as.pt.table_pages = 2;
  app.as.heap_base = 0x100000;
  app.as.heap_end = 0x180000;
  app.as.locked_until = 42;
  app.as.swapped = {0x140000};
  app.as.zone_policy = 0;
  app.as.home_zone = 0;
  app.as.zone_count = 1;
  app.core = 0;
  app.sched_id = 0;
  app.sched_gen = 3;
  app.fault_stats.record(mm::FaultKind::kSmall, 900);
  app.alive = true;
  ProcessImage hpc = app;
  hpc.pid = 1001;
  hpc.name = "hpc";
  hpc.policy = 3;
  hpc.as.pid = 1001;
  hpc.as.swapped = {};
  hpc.core = -1;
  hpc.alive = false;
  n.processes = {app, hpc};
  n.next_pid = 1002;
  n.anon_lru = {{.pid = 1000, .addr = 0x140000}};
  n.swapped_out_total = 1;
  w.nodes = {n};

  BuildImage b;
  b.node_index = 0;
  b.rng = {13, 14, 15, 16};
  b.jobs = {{.blocks = {{.zone = 0, .addr = 0x50000, .order = 2}}, .sched_id = 1,
             .sched_gen = 4, .bw_id = 1, .home = 0, .phase = 2, .live = true}};
  b.stats = {.jobs_completed = 3, .alloc_failures = 1, .bytes_churned = 0x10000};
  b.running = true;
  w.builds = {b};

  w.events = {{.when = 6000, .seq = 8, .daemon = true, .kind = EventKind::kBuildStep,
               .node_index = 0, .build_index = 0, .aux = 0}};

  trace::Event e;
  e.ts = 4500;
  e.dur = 20;
  e.event_name = "golden.event";
  e.cat = trace::Category::kThp;
  e.phase = trace::Phase::kComplete;
  e.pid = 1000;
  e.core = 1;
  e.span = 9;
  e.arg_count = 4;
  e.args[0].name = "none";
  e.args[1] = trace::Arg::u64("pages", 512);
  e.args[2] = trace::Arg::f64("ratio", 0.75);
  e.args[3] = trace::Arg::str("why", "merge");
  w.trace.ring = {e};
  w.trace.capacity = 8;
  w.trace.head = 1;
  w.trace.dropped = 0;
  w.trace.recorded = 1;

  w.metrics.counters = {{"faults", 3}};
  HistogramImage h;
  h.stats = {.n = 2, .mean = 1.5, .m2 = 0.5, .min = 1.0, .max = 2.0, .sum = 3.0};
  h.p50 = {.q = 0.5, .n = 2, .heights = {1.0, 2.0}, .positions = {1.0, 2.0, 3.0, 4.0, 5.0},
           .desired = {1.0, 2.0, 3.0, 4.0, 5.0}, .increments = {0.0, 0.25, 0.5, 0.75, 1.0}};
  h.p95 = h.p50;
  h.p95.q = 0.95;
  h.p99 = h.p50;
  h.p99.q = 0.99;
  w.metrics.histograms = {{"latency", h}};

  w.injector.plan.points[0].first = 3;
  w.injector.stats[1] = {.calls = 4, .fired = 1};
  w.injector.rng = {17, 18, 19, 20};
  w.injector.armed = true;
  return w;
}

/// Lower-case hex, 32 bytes to a line.
std::string to_hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const auto c = static_cast<unsigned char>(bytes[i]);
    out += kDigits[c >> 4];
    out += kDigits[c & 0xf];
    if (i % 32 == 31 || i + 1 == bytes.size()) {
      out += '\n';
    }
  }
  return out;
}

TEST(SnapshotFileFormat, HandBuiltImageMatchesTheV4Bytes) {
  const std::string path = temp_path("v4_layout");
  snapshot::save(hand_built_image(), path);
  const std::string saved = to_hex(file_bytes(path));
  const std::string golden = file_bytes(HPMMAP_GOLDEN_DIR "/snapshot_v4_small.hex");
  if (saved != golden) {
    const std::string actual = temp_path("v4_layout_actual") + ".hex";
    std::ofstream(actual, std::ios::binary) << saved;
    ADD_FAILURE() << "saved bytes differ from the v4 golden; they are in " << actual;
  }
  // The loader reads the pinned bytes back to the same image.
  snapshot::save(snapshot::load(path), path);
  EXPECT_EQ(to_hex(file_bytes(path)), golden);
  std::remove(path.c_str());
}

TEST(SnapshotFileFormat, VmaPaddingNeverReachesTheFile) {
  // mm::Vma has a padding byte after `locked`; a VMA built in a dirty
  // stack slot must save to the same bytes as one built in zeroed memory.
  const auto image_with_vma = [](unsigned char fill) {
    mm::Vma v;
    std::memset(static_cast<void*>(&v), fill, sizeof v);
    v.range = {0x100000, 0x180000};
    v.prot = kProtRW;
    v.kind = mm::VmaKind::kHeap;
    v.thp_eligible = true;
    v.locked = false;
    v.hugetlb_size = PageSize::k2M;
    snapshot::WorldImage w = hand_built_image();
    w.nodes.at(0).processes.at(0).as.vmas = {v};
    return w;
  };
  const std::string poisoned = temp_path("vma_poisoned");
  const std::string zeroed = temp_path("vma_zeroed");
  snapshot::save(image_with_vma(0xAB), poisoned);
  snapshot::save(image_with_vma(0x00), zeroed);
  EXPECT_TRUE(file_bytes(poisoned) == file_bytes(zeroed));
  std::remove(poisoned.c_str());
  std::remove(zeroed.c_str());
}

// --- time travel -----------------------------------------------------------

/// Replay-to-anomaly: run a traced world while taking periodic captures,
/// pick an "anomaly" off the flight recorder (a khugepaged merge
/// completing — preferring the rarer abort if one happened), restore the
/// latest capture preceding it and single-step the engine until the
/// anomaly's timestamp. The restored world must re-emit the identical
/// event — pid, timestamp and arguments — proving a capture is a usable
/// debugging time machine, not just a warm-start cache.
TEST(SnapshotTimeTravel, SingleSteppingFromRestoreReproducesTheAnomalyEvent) {
  const std::uint32_t thp_mask = static_cast<std::uint32_t>(trace::Category::kThp);
  trace::recorder().set_capacity(std::size_t{1} << 16);
  trace::enable(thp_mask);

  // An aged machine short on order-9 blocks: THP first touches fall back
  // to 4K, khugepaged merges them later — scheduled engine work we can
  // replay without re-running any syscall. (khugepaged's scan period is
  // 10 s of virtual time, so the anomaly lands tens of slices in.)
  os::NodeConfig cfg;
  cfg.machine = hw::dell_r415();
  cfg.machine.ram_bytes = 2 * GiB;
  cfg.seed = 31;
  cfg.aged_boot = true;
  cfg.boot_cache_fraction = 0.70;
  cfg.boot_slab_fraction = 0.12;
  sim::Engine engine;
  os::Node node(engine, cfg);
  std::vector<os::Process*> procs;
  for (int i = 0; i < 3; ++i) {
    procs.push_back(&node.spawn("tt" + std::to_string(i), os::MmPolicy::kLinuxThp, i, 1.0,
                                mm::AddressSpace::ZonePolicy::kSingle, 0));
  }
  for (os::Process* p : procs) {
    const auto out = node.sys_mmap(*p, 64 * MiB, kProtRW, os::Node::Segment::kHeapData);
    ASSERT_EQ(out.err, Errno::kOk);
    (void)node.touch_range(*p, Range{out.addr, out.addr + 64 * MiB});
  }
  ASSERT_GT(node.thp()->stats().fault_huge_fallback, 0u);

  // From here the timeline is purely engine-driven. Interleave captures
  // with one-second slices, keeping a short ring of recent images (how a
  // flight-recorder debugger would bound its history), and stop once a
  // merge lands past the oldest retained capture.
  struct Capture {
    Cycles now = 0;
    snapshot::WorldImage image;
  };
  std::deque<Capture> ring;
  const auto slice = static_cast<Cycles>(1.0 * cfg.machine.clock_hz);
  const auto find_anomaly = [&]() -> const trace::Event* {
    const trace::Event* best = nullptr;
    // Static storage so the returned pointer outlives the call: the ring
    // buffer itself stays alive, but snapshot() copies.
    static std::vector<trace::Event> events;
    events = trace::recorder().snapshot();
    for (const trace::Event& e : events) {
      if (ring.empty() || e.ts <= ring.front().now) {
        continue;
      }
      if (e.name() == "khugepaged.merge_abort") {
        best = &e; // the rarer event wins when both happened
      } else if ((best == nullptr || best->name() != "khugepaged.merge_abort") &&
                 e.name() == "khugepaged.merge_done") {
        best = &e;
      }
    }
    return best;
  };
  const trace::Event* anomaly = nullptr;
  for (int i = 0; i < 80 && anomaly == nullptr; ++i) {
    ring.push_back({engine.now(), snapshot::capture_world(engine, {&node})});
    if (ring.size() > 4) {
      ring.pop_front();
    }
    engine.run_until(engine.now() + slice);
    anomaly = find_anomaly();
  }
  trace::disable_all();
  ASSERT_NE(anomaly, nullptr) << "no khugepaged merge landed in the window";
  const trace::Event want = *anomaly;

  const Capture* from = nullptr;
  for (const Capture& c : ring) {
    if (c.now < want.ts) {
      from = &c;
    }
  }
  ASSERT_NE(from, nullptr);

  // Time-travel: fresh boot, restore, single-step to the anomaly.
  sim::Engine engine2;
  cfg.aged_boot = false;
  os::Node node2(engine2, cfg);
  snapshot::restore_world(from->image, engine2, {&node2});
  EXPECT_EQ(engine2.now(), from->now);
  const std::size_t replay_start = trace::recorder().size();
  trace::enable(thp_mask);
  bool replayed = false;
  std::uint64_t steps = 0;
  while (!replayed && engine2.now() <= want.ts && snapshot::step_one(engine2)) {
    ++steps;
    const std::vector<trace::Event> replay = trace::recorder().snapshot();
    for (std::size_t i = replay_start; i < replay.size(); ++i) {
      const trace::Event& e = replay[i];
      if (e.ts == want.ts && e.name() == want.name() && e.pid == want.pid) {
        expect_args_equal(e, want, i);
        // Causal context must replay too: the restored world re-emits
        // the event under the same span (or span-free, like here).
        EXPECT_EQ(e.span, want.span) << trace::describe(e);
        replayed = true;
      }
    }
  }
  trace::disable_all();
  // describe() renders the span id when the anomaly carries one, so the
  // dump names the victim request/actor, not just the raw tracepoint.
  EXPECT_TRUE(replayed) << "anomaly not re-emitted after " << steps << " steps from ts "
                        << from->now << ": " << trace::describe(want);
  EXPECT_GT(steps, 0u);
}

} // namespace
} // namespace hpmmap
