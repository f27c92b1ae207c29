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
#include <array>
#include <bit>
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
#include "harness/result_fields.hpp"
#include "introspect/procfs.hpp"
#include "linux_mm/smp.hpp"
#include "os/node.hpp"
#include "sim/engine.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "verify/audit.hpp"
#include "verify/fault_inject.hpp"
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

// --- straight run vs snapshot-resumed run, all three managers -------------

class SnapshotManagers : public ::testing::TestWithParam<harness::Manager> {};

TEST_P(SnapshotManagers, ResumedRunIsByteIdenticalToStraightRun) {
  const harness::SingleNodeRunConfig cfg =
      quick("miniMD", GetParam(), workloads::profile_a(2), 2);
  const harness::RunResult straight = harness::run_single_node(cfg);
  const snapshot::WorldImage image = harness::capture_single_node(cfg);
  const harness::RunResult resumed = harness::run_single_node(cfg, image);
  EXPECT_EQ(harness::first_difference(straight, resumed), std::nullopt);
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
  EXPECT_EQ(harness::first_difference(straight, resumed), std::nullopt);
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
  EXPECT_EQ(harness::first_difference(harness::run_single_node(base),
                                      harness::run_single_node(base, image)),
            std::nullopt);
  EXPECT_EQ(harness::first_difference(harness::run_single_node(other),
                                      harness::run_single_node(other, image)),
            std::nullopt);
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
  EXPECT_EQ(harness::first_difference(straight, resumed), std::nullopt);
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
  const std::string path = "/tmp/hpmmap_test_smp.img";
  snapshot::save(image, path);
  const snapshot::WorldImage loaded = snapshot::load(path);
  std::remove(path.c_str());

  sim::Engine engine2;
  os::Node node2(engine2, smp_node_config(41));
  snapshot::restore_world(loaded, engine2, {&node2});

  // Re-capturing the restored world gives the saved image back: every
  // release stamp, list entry and counter survived the round trip. (The
  // audit comes after the capture — it bumps telemetry counters that the
  // snapshot captures.)
  EXPECT_EQ(harness::first_difference(image, snapshot::capture_world(engine2, {&node2})),
            std::nullopt);
  const verify::AuditReport report = verify::MmAuditor(node2).run();
  EXPECT_TRUE(report.ok()) << report.summary();
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
    ASSERT_EQ(harness::first_difference(snapshot::capture_world(engine, {&node}),
                                        snapshot::capture_world(engine2, {&node2})),
              std::nullopt)
        << "diverged after round " << round;

    // The walk continues on the original only; restored worlds are
    // discarded, so the original now leads by one round.
  }
}

// --- the image file: save/load fixpoint and corrupt-file rejection --------
//
// save(load(save(img))) must reproduce save(img) byte for byte: every
// array the serializer moves as one raw run (buddy bitmaps, hugetlb bits,
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
// Capturing a freshly restored world must give back the restored image,
// compared field by field in memory (harness::first_difference). A field
// that restore drops, or that capture reads from somewhere restore does
// not write, shows up here as the path of the differing field; the
// save/load fixpoints above never run capture or restore and cannot see it.

/// A fresh, unaged restore target shaped like a captured world: the same
/// node config with the profile's kernel builds constructed but not
/// started (their seeds do not matter; restore overwrites them). The
/// configs below mirror the harness worlds' boots (harness/
/// experiment.cpp, harness/cluster.cpp); a drift trips one of restore's
/// layout asserts.
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
  EXPECT_EQ(harness::first_difference(
                image, snapshot::capture_world(target.engine, {&target.node}, target.refs())),
            std::nullopt)
      << stem;
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

TEST(SnapshotRestoreFixpointWorlds, MetricHistogramsRestoreEveryMarker) {
  // Past five samples a histogram's P² markers hold state that no query
  // reads directly; restore must bring every marker back.
  sim::Engine engine;
  os::Node node(engine, node_config(17, /*aged=*/false));
  trace::metrics().reset();
  trace::Histogram& h = trace::metrics().histogram("test.cycles");
  for (int i = 1; i <= 40; ++i) {
    h.add(static_cast<double>((i * 37) % 101));
  }
  const double p95 = h.p95();
  const snapshot::WorldImage image = snapshot::capture_world(engine, {&node});
  trace::metrics().reset();
  RestoreTarget target(node_config(17, /*aged=*/false), workloads::no_competition());
  expect_restore_capture_fixpoint(image, target, "recapture_metrics");
  EXPECT_EQ(trace::metrics().histograms().at("test.cycles").p95(), p95);
  trace::metrics().reset();
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

// --- every event handle armed at once ---------------------------------------
//
// A world's pending events live in seven handles: kswapd, khugepaged's
// scan and wake, a pending collapse, a pending merge, and a kernel-build
// job's spawn (before it runs) or step (while it runs). Each moves through
// one d.event call in its owner's transfer list, so a capture holding all
// seven exercises every call: each must be armed in the image, the image
// must recapture its own bytes after restore, and the resumed world must
// reach the bytes the uninterrupted world reaches.

/// Whether each handle kind is armed in `image`, in the order above.
std::array<bool, 7> armed_handles(const snapshot::WorldImage& image) {
  const snapshot::NodeImage& n = image.nodes.at(0);
  std::array<bool, 7> armed{n.kswapd.seq != 0, n.thp.pending_scan.seq != 0,
                            n.thp.wake_pending.seq != 0};
  for (const snapshot::ThpCollapseImage& c : n.thp.pending_collapses) {
    armed[3] = armed[3] || c.event.seq != 0;
  }
  for (const snapshot::ThpMergeImage& m : n.thp.pending_merges) {
    armed[4] = armed[4] || m.event.seq != 0;
  }
  for (const snapshot::BuildJobImage& j : image.builds.at(0).jobs) {
    armed[j.live ? 6 : 5] = armed[j.live ? 6 : 5] || j.pending.seq != 0;
  }
  return armed;
}

TEST(SnapshotEvents, AllSevenHandlesArmedRestoreAndResumeExactly) {
  // A 1 ms khugepaged period: a scan's collapses (1-9 ms of PTE scanning
  // each) outlive it, so a fault fallback past the period wakes the daemon
  // while collapses and merges are still pending. Every huge fault falls
  // back, so each touched region becomes a collapse candidate.
  os::NodeConfig cfg = node_config(17, /*aged=*/false);
  cfg.costs.khugepaged_scan_period_ms = 1;
  verify::InjectionPlan plan;
  plan[verify::InjectPoint::kThpHugeAlloc] = {.first = 1, .period = 1, .count = ~0ull};
  verify::injector().arm(plan, 1);
  const workloads::CommodityProfile commodity{.name = "events", .builds = 1, .jobs_per_build = 8};

  sim::Engine engine;
  os::Node node(engine, cfg);
  workloads::KernelBuildConfig bc;
  bc.jobs = commodity.jobs_per_build;
  workloads::KernelBuild build(node, bc, Rng(5));
  const std::vector<snapshot::BuildRef> refs{{&build, 0}};
  os::Process& p = node.spawn("thp", os::MmPolicy::kLinuxThp, 0, 1.0,
                              mm::AddressSpace::ZonePolicy::kSingle, 0);
  build.start();
  // Fault a fresh region in every quarter millisecond until one capture
  // holds all seven; the build's staggered starts keep spawns pending for
  // the first 0.14 s.
  snapshot::WorldImage image;
  bool all_armed = false;
  for (int step = 0; step < 400 && !all_armed; ++step) {
    const auto out = node.sys_mmap(p, 4 * MiB, kProtRW, os::Node::Segment::kHeapData);
    ASSERT_EQ(out.err, Errno::kOk);
    (void)node.touch_range(p, Range{out.addr, out.addr + 4 * MiB});
    image = snapshot::capture_world(engine, {&node}, refs);
    const std::array<bool, 7> armed = armed_handles(image);
    all_armed = std::ranges::all_of(armed, [](bool a) { return a; });
    engine.run_until(engine.now() + node.spec().cycles(0.25e-3));
  }
  ASSERT_TRUE(all_armed) << "no capture held all seven event handles";

  // Resumed == straight: the source runs on from the capture...
  const Cycles horizon = engine.now() + node.spec().cycles(0.05);
  engine.run_until(horizon);
  const snapshot::WorldImage straight = snapshot::capture_world(engine, {&node}, refs);
  build.stop();

  // ...and so does a fresh world restored from it.
  RestoreTarget target(cfg, commodity);
  expect_restore_capture_fixpoint(image, target, "recapture_events");
  target.engine.run_until(horizon);
  const snapshot::WorldImage resumed =
      snapshot::capture_world(target.engine, {&target.node}, target.refs());
  verify::injector().disarm();
  EXPECT_EQ(harness::first_difference(straight, resumed), std::nullopt);
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

  EXPECT_EQ(harness::first_difference(loaded.trace.ring, image.trace.ring), std::nullopt);
  std::uint32_t outer_span = 0, inner_span = 0, none_span = 99;
  for (const trace::Event& got : loaded.trace.ring) {
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
      harness::run_trials(configs, /*trials=*/2, /*jobs=*/1);
  const std::vector<harness::SeriesPoint> snap =
      harness::run_trials_snapshotted(configs, /*trials=*/2, /*jobs=*/1);
  EXPECT_EQ(harness::first_difference(plain, snap), std::nullopt);
  // Parallel fan-out folds identically too (the BatchRunner contract).
  EXPECT_EQ(harness::first_difference(
                plain, harness::run_trials_snapshotted(configs, 2, /*jobs=*/4)),
            std::nullopt);
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
  std::vector<harness::ClusterRunConfig> configs;
  configs.push_back({scaling("HPCCG", harness::Manager::kThp)});
  configs.push_back({scaling("miniFE", harness::Manager::kThp)});
  configs.push_back({scaling("LAMMPS", harness::Manager::kThp)});
  configs.back().scaling.duration_scale = 0.03;
  configs.push_back({scaling("HPCCG", harness::Manager::kHpmmap)});
  const std::vector<harness::SeriesPoint> plain =
      harness::run_trials(configs, /*trials=*/2, /*jobs=*/1);
  for (const unsigned jobs : {1u, 4u}) {
    EXPECT_EQ(harness::first_difference(plain, harness::run_trials_snapshotted(configs, 2, jobs)),
              std::nullopt)
        << "jobs " << jobs;
  }
}

TEST(SnapshotSweep, TopologiesShareOneAgedClusterAndKeepTheirOwn) {
  // The topology prices only the collectives, which start after the
  // capture point: a flat and a fat-tree run of one cluster share its
  // aged world, and each resumed member still runs its own topology.
  // Past 16 nodes the fat-tree adds an aggregation stage to every hop.
  harness::ClusterRunConfig flat;
  flat.scaling.app = "HPCCG";
  flat.scaling.manager = harness::Manager::kThp;
  flat.scaling.commodity = workloads::profile_c();
  flat.scaling.nodes = 17;
  flat.scaling.ranks_per_node = 2;
  flat.scaling.seed = 8;
  flat.scaling.footprint_scale = 0.02;
  flat.scaling.duration_scale = 0.02;
  flat.scaling.warmup_seconds = 0.2;
  harness::ClusterRunConfig fat_tree = flat;
  fat_tree.topology = cluster::Topology::kFatTree;
  const std::vector configs{flat, fat_tree};
  EXPECT_TRUE(harness::detail::same_world(flat, fat_tree));
  const std::vector<harness::SeriesPoint> plain =
      harness::run_trials(configs, /*trials=*/1, /*jobs=*/1);
  EXPECT_NE(plain[0].mean_seconds, plain[1].mean_seconds);
  EXPECT_EQ(harness::first_difference(
                plain, harness::run_trials_snapshotted(configs, 1, /*jobs=*/1)),
            std::nullopt);
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
    // A marker run at the head of zone 0's order-0 bitmap and a marker
    // event first in the ring, so their length words can be found. Only
    // the file is corrupted and loaded; nothing restores these.
    std::vector<std::uint64_t>& bits = image_.nodes.at(0).memory.zones.at(0).buddy.lists.at(0).bits;
    ASSERT_GT(bits.size() * 8, 1024u);
    bits[0] = 0x5eedfacecafef00d;
    bits[1] = 0x0ddba11decade5ed;
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
  /// Zone 0's order-0 bitmap, whose run starts with the marker words.
  [[nodiscard]] const std::vector<std::uint64_t>& marked_bits() const {
    return image_.nodes.at(0).memory.zones.at(0).buddy.lists.at(0).bits;
  }
  /// The marked bitmap's length, followed by the marker words.
  [[nodiscard]] std::size_t bits_length_offset() const {
    const std::vector<std::uint64_t>& bits = marked_bits();
    return find_word(bits.size(), raw(bits[0]) + raw(bits[1]));
  }
  /// The node count, followed by the first node's clock and RNG state.
  [[nodiscard]] std::size_t node_count_offset() const {
    const snapshot::NodeImage& n = image_.nodes.at(0);
    return find_word(image_.nodes.size(), raw(n.clock_hz) + raw(n.rng));
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
  const std::size_t bits = bits_length_offset();
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{6}, std::size_t{12},
                                std::size_t{21}, bits + 4, bits + 8 + 1000,
                                bytes_.size() / 2, bytes_.size() - 1}) {
    write(bytes_.substr(0, cut));
    EXPECT_DEATH((void)snapshot::load(path_), "snapshot: truncated image file")
        << "cut at " << cut << " of " << bytes_.size();
  }
}

TEST_F(SnapshotFileDeathTest, OversizedLengthWordsFailWithTheLoaderMessage) {
  // One length word of each kind: number arrays (the marked bitmap and
  // its summary after it), a string (the first process's name, after the
  // process count and its pid) and lists of records (nodes, one node's
  // processes, the trace ring), whose unit is derived.
  const std::size_t bits = bits_length_offset();
  const std::size_t length_words[] = {
      bits,
      process_count_offset() + 8 + sizeof(Pid),
      bits + 8 + marked_bits().size() * sizeof(std::uint64_t),
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
  for (const std::uint32_t version : {4u, 6u, 7u, 8u}) {
    std::string b = bytes_;
    std::memcpy(b.data() + 4, &version, sizeof version);
    write(b);
    EXPECT_DEATH((void)snapshot::load(path_), "snapshot: unsupported image version")
        << "version " << version;
  }
}

// A Kitten heap's bitmaps are sized by its min order, which the image
// does not record, and a hugetlb pool's pooled bits by its zone: restore
// must refuse arrays whose lengths differ from the fresh world's rather
// than install them. So must an anon LRU run that names a pid the world
// never spawned.
TEST(SnapshotRestoreDeathTest, MisSizedKittenArraysAndUnknownLruPidsAreRefused) {
  sim::Engine engine;
  os::Node node(engine, node_config(5, /*aged=*/false));
  os::Process& p = node.spawn("lru", os::MmPolicy::kLinuxPlain, 0, 1.0,
                              mm::AddressSpace::ZonePolicy::kSingle, 0);
  const auto out = node.sys_mmap(p, 64 * KiB, kProtRW, os::Node::Segment::kHeapData);
  ASSERT_EQ(out.err, Errno::kOk);
  (void)node.touch_range(p, Range{out.addr, out.addr + 64 * KiB});
  const snapshot::WorldImage image = snapshot::capture_world(engine, {&node});
  ASSERT_FALSE(image.nodes.at(0).anon_lru.empty());

  struct Case {
    const char* stem;
    void (*edit)(snapshot::WorldImage&);
    const char* message;
  };
  const Case cases[] = {
      {"pooled_bits_long",
       [](snapshot::WorldImage& w) { w.nodes.at(0).hugetlb.pool.at(0).pooled.push_back(0); },
       "snapshot: hugetlb pooled bitmap length mismatch"},
      {"kitten_bits_long",
       [](snapshot::WorldImage& w) {
         w.nodes.at(0).module.kitten_zones.at(0).at(0).lists.at(0).bits.push_back(0);
       },
       "snapshot: buddy bitmap length mismatch"},
      {"kitten_summary_short",
       [](snapshot::WorldImage& w) {
         w.nodes.at(0).module.kitten_zones.at(0).at(0).lists.at(9).summary.clear();
       },
       "snapshot: buddy summary length mismatch"},
      {"lru_unknown_pid",
       [](snapshot::WorldImage& w) { w.nodes.at(0).anon_lru.at(0).pid = 4242; },
       "snapshot: anon LRU run names an unknown pid or no pages"},
  };
  for (const Case& c : cases) {
    snapshot::WorldImage edited = image;
    c.edit(edited);
    // Through the file, so the loader accepts what restore refuses.
    const std::string path = temp_path(c.stem);
    snapshot::save(edited, path);
    const snapshot::WorldImage loaded = snapshot::load(path);
    std::remove(path.c_str());

    sim::Engine target_engine;
    os::Node target(target_engine, node_config(5, /*aged=*/false));
    EXPECT_DEATH(snapshot::restore_world(loaded, target_engine, {&target}), c.message)
        << c.stem;
  }
}

// Each piece of layout a fresh boot fixes is checked where its owner's
// transfer list moves it: a target booted differently in any one respect
// is refused with that owner's message before its state is overwritten.
TEST(SnapshotRestoreDeathTest, TargetsWithADifferentLayoutAreRefusedByTheOwner) {
  sim::Engine engine;
  os::Node node(engine, node_config(5, /*aged=*/false));
  workloads::KernelBuildConfig bc;
  bc.jobs = 2;
  workloads::KernelBuild build(node, bc, Rng(3));
  const snapshot::WorldImage image = snapshot::capture_world(engine, {&node}, {{&build, 0}});

  struct Case {
    const char* what;
    void (*boot)(os::NodeConfig&);
    std::uint32_t nodes;
    std::uint32_t builds;
    std::uint32_t jobs;
    std::uint32_t build_node;
    const char* message;
  };
  const auto same = [](os::NodeConfig&) {};
  const Case cases[] = {
      {"node count", same, 2, 1, 2, 0, "snapshot: node count mismatch"},
      {"build count", same, 1, 0, 2, 0, "snapshot: build count mismatch"},
      {"cores", [](os::NodeConfig& c) { c.machine.cores_per_socket = 4; }, 1, 1, 2, 0,
       "snapshot: scheduler core count mismatch"},
      {"clock", [](os::NodeConfig& c) { c.machine.clock_hz = 2.0e9; }, 1, 1, 2, 0,
       "snapshot: node clock mismatch"},
      {"zones", [](os::NodeConfig& c) { c.machine.numa_zones = 1; }, 1, 1, 2, 0,
       "snapshot: zone count mismatch"},
      {"zone extents", [](os::NodeConfig& c) { c.machine.ram_bytes = 8 * GiB; }, 1, 1, 2, 0,
       "snapshot: buddy layout mismatch"},
      {"module", [](os::NodeConfig& c) { c.hpmmap.reset(); }, 1, 1, 2, 0,
       "snapshot: module presence mismatch"},
      {"hugetlb", [](os::NodeConfig& c) { c.hugetlb_pool_per_zone = 0; }, 1, 1, 2, 0,
       "snapshot: hugetlb presence mismatch"},
      {"thp", [](os::NodeConfig& c) { c.thp_enabled = false; }, 1, 1, 2, 0,
       "snapshot: thp presence mismatch"},
      {"build jobs", same, 1, 1, 3, 0, "snapshot: build job count mismatch"},
      {"build node", same, 1, 1, 2, 1, "snapshot: build node mismatch"},
  };
  for (const Case& c : cases) {
    os::NodeConfig cfg = node_config(5, /*aged=*/false);
    c.boot(cfg);
    sim::Engine target_engine;
    std::vector<std::unique_ptr<os::Node>> targets;
    std::vector<os::Node*> nodes;
    for (std::uint32_t n = 0; n < c.nodes; ++n) {
      nodes.push_back(targets.emplace_back(std::make_unique<os::Node>(target_engine, cfg)).get());
    }
    workloads::KernelBuildConfig target_bc;
    target_bc.jobs = c.jobs;
    workloads::KernelBuild target_build(*nodes.front(), target_bc, Rng(3));
    std::vector<snapshot::BuildRef> refs;
    if (c.builds == 1) {
      refs.push_back({&target_build, c.build_node});
    }
    EXPECT_DEATH(snapshot::restore_world(image, target_engine, nodes, refs), c.message) << c.what;
  }
}

// The hugetlb pool's zone count is checked before its bulk move would
// overwrite the pool list. A real boot cannot change that count without
// tripping the earlier zone count check, so the image is edited instead.
TEST(SnapshotRestoreDeathTest, ImagesWithADifferentHugetlbZoneCountAreRefusedByThePool) {
  sim::Engine engine;
  os::Node node(engine, node_config(5, /*aged=*/false));
  snapshot::WorldImage image = snapshot::capture_world(engine, {&node});
  ASSERT_TRUE(image.nodes.at(0).has_hugetlb);
  image.nodes.at(0).hugetlb.pool.pop_back();

  sim::Engine target_engine;
  os::Node target(target_engine, node_config(5, /*aged=*/false));
  EXPECT_DEATH(snapshot::restore_world(image, target_engine, {&target}),
               "snapshot: hugetlb zone count mismatch");
}

// --- the v9 byte layout -----------------------------------------------------
//
// The fixpoint tests prove that save and load agree with each other; a
// change that reordered a field in both would still pass them. This
// image is built by hand, never captured, so simulator changes cannot
// move it: every list holds one or two entries, every has_* branch is
// on, every event handle is armed, and the trace event carries one
// argument of each kind. Its saved
// bytes are pinned in tests/golden/snapshot_v9_small.hex. A deliberate
// format change bumps kVersion and records a new golden.

/// An Rng whose four state words are `s`.
Rng rng_state(std::array<std::uint64_t, 4> s) { return std::bit_cast<Rng>(s); }

snapshot::WorldImage hand_built_image() {
  using namespace snapshot;
  WorldImage w;
  w.engine = {.now = 5000, .next_seq = 9, .fired = 7, .cancelled = 1, .stopped = true};

  NodeImage n;
  n.clock_hz = 2.2e9;
  n.rng = rng_state({1, 2, 3, 4});
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
  z.buddy.corrupt_blocks = {{.addr = 0x20000, .order = 1}};
  z.buddy.stats = {.allocs = 11, .frees = 12, .split_steps = 13, .merge_steps = 14,
                   .failed_allocs = 15};
  z.cache = {.lru = {{.head = 3, .order = 0, .dirty = true}, {.head = 4, .order = 2, .dirty = false}},
             .state = {.cached_bytes = 0x2000, .free_floor = 0x1000, .dirty_fraction = 0.125,
                       .grow_count = 6}};
  z.online_bytes = 0x80000;
  z.compact_cursor = 0x30000;
  z.compact_defer = 2;
  n.memory.rng = rng_state({5, 6, 7, 8});
  n.memory.zones = {z};

  n.has_hugetlb = true;
  n.hugetlb.pool = {{.stack = {5, 1}, .count = 2, .pooled = {0x3}}};
  n.hugetlb.total = {4};
  n.hugetlb.stats = {.pool_pages_total = 4, .faults_served = 2, .pool_exhausted = 1};

  n.has_module = true;
  n.module.rng = rng_state({9, 10, 11, 12});
  n.module.offlined = {{Range{0x40000, 0x60000}}};
  BuddyImage kitten;
  kitten.range = {0x40000, 0x60000};
  kitten.max_order = 9;
  n.module.kitten_zones = {{kitten}};
  n.module.kitten_stats = {.allocs = 21, .frees = 22, .failed = 23};
  n.module.registry_slots = {
      {.state = core::PidRegistry::State::kUsed, .pid = 1001, .context = 0}};
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
  n.thp.pending_scan = {.when = 5200, .seq = 4, .daemon = false};
  n.thp.wake_pending = {.when = 5050, .seq = 5, .daemon = false};
  n.thp.pending_collapses = {{.token = 1, .pid = 1000, .region = 0x200000, .mapped_small = 3,
                              .event = {.when = 5300, .seq = 6, .daemon = false}}};
  n.thp.pending_merges = {{.token = 2, .pid = 1000, .region = 0x400000, .huge_phys = 0x70000,
                           .event = {.when = 5400, .seq = 7, .daemon = false}}};
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
  n.anon_lru = {{.pid = 1000, .first = 0x140000, .pages = 1}};
  n.swapped_out_total = 1;
  n.kswapd = {.when = 5100, .seq = 3, .daemon = true};
  w.nodes = {n};

  BuildImage b;
  b.node_index = 0;
  b.rng = rng_state({13, 14, 15, 16});
  b.jobs = {{.blocks = {{.zone = 0, .addr = 0x50000, .order = 2}}, .sched_id = 1,
             .sched_gen = 4, .bw_id = 1, .home = 0, .phase = 2, .live = true,
             .pending = {.when = 6000, .seq = 8, .daemon = true}}};
  b.stats = {.jobs_completed = 3, .alloc_failures = 1, .bytes_churned = 0x10000};
  b.running = true;
  w.builds = {b};

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
  w.injector.rng = rng_state({17, 18, 19, 20});
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

TEST(SnapshotFileFormat, HandBuiltImageMatchesTheV9Bytes) {
  const std::string path = temp_path("v9_layout");
  snapshot::save(hand_built_image(), path);
  const std::string saved = to_hex(file_bytes(path));
  const std::string golden = file_bytes(HPMMAP_GOLDEN_DIR "/snapshot_v9_small.hex");
  if (saved != golden) {
    const std::string actual = temp_path("v9_layout_actual") + ".hex";
    std::ofstream(actual, std::ios::binary) << saved;
    ADD_FAILURE() << "saved bytes differ from the v9 golden; they are in " << actual;
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
        // Arguments and causal context must replay too: the restored
        // world re-emits the event under the same span (or span-free,
        // like here).
        EXPECT_EQ(harness::first_difference(e, want), std::nullopt) << trace::describe(e);
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
