// Causal attribution (DESIGN.md §15): the latency-decomposition
// accounting (sum of buckets == measured latency, exact on the virtual
// clock), the contention profiler's folded-stack writer, and the
// pure-observer contract — span stamping and attribution on/off leave
// every other output byte-identical, at any --jobs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/units.hpp"
#include "harness/batch.hpp"
#include "harness/experiment.hpp"
#include "harness/result_fields.hpp"
#include "profile/attribution.hpp"
#include "profile/contention.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "workloads/profiles.hpp"

namespace hpmmap {
namespace {

// --- latency decomposition --------------------------------------------------

TEST(Attribution, BucketsSumToLatencyExactly) {
  profile::RequestProfiler p;
  profile::LockWaits locks;
  locks.mmap_sem = 100;
  locks.pt = 40;
  locks.zone = 10;
  locks.ipi_stall = 25;
  // queue 500, slab 50+20, fault 1000-175, locks 175, dilation 30+15,
  // miss 2000, compute 700, stretch 300 => latency 4615.
  p.on_dispatch(/*index=*/3, /*arrival=*/1'000'000, /*queue_wait=*/500,
                /*slab_alloc=*/50, /*touch_cost=*/1000, locks, /*dilation=*/30);
  p.on_serve(3, /*miss_wait=*/2000, /*work=*/700, /*stretch=*/300, /*slab_free=*/20,
             /*dilation=*/15);
  p.on_finish(3, /*latency=*/4615);

  const profile::TrialAttribution& t = p.trial();
  ASSERT_EQ(t.completed, 1u);
  EXPECT_EQ(t.residual_errors, 0u);
  const profile::RequestRecord& r = t.requests.front();
  EXPECT_EQ(r.span, 4u); // index + 1
  EXPECT_EQ(r.queue, 500);
  EXPECT_EQ(r.slab, 70);
  EXPECT_EQ(r.fault, 825); // touch cycles net of lock wait
  EXPECT_EQ(r.lock_mmap_sem, 100);
  EXPECT_EQ(r.lock_pt, 40);
  EXPECT_EQ(r.lock_zone, 10);
  EXPECT_EQ(r.ipi_stall, 25);
  EXPECT_EQ(r.miss_disk, 2000);
  EXPECT_EQ(r.compute, 700);
  EXPECT_EQ(r.mem_stretch, 300);
  EXPECT_EQ(r.sched_dilation, 45);
  EXPECT_EQ(r.sum(), static_cast<std::int64_t>(r.latency));
}

TEST(Attribution, ResidualIsCountedNotHidden) {
  profile::RequestProfiler p;
  p.on_dispatch(0, 0, 100, 0, 0, {}, 0);
  p.on_finish(0, /*latency=*/101); // one cycle unaccounted for
  EXPECT_EQ(p.trial().residual_errors, 1u);
  // The report renders "!=" rather than silently normalizing.
  const std::string report = profile::render_report(p.trial(), 2.3e9);
  EXPECT_NE(report.find("1 residual errors"), std::string::npos);
  EXPECT_NE(report.find("sum != latency"), std::string::npos);
}

TEST(Attribution, PercentileRecordUsesNearestRank) {
  std::vector<profile::RequestRecord> records;
  for (std::uint64_t i = 0; i < 100; ++i) {
    profile::RequestRecord r;
    r.index = i;
    r.latency = 10 * (i + 1); // 10, 20, ..., 1000
    records.push_back(r);
  }
  EXPECT_EQ(profile::percentile_record(records, 0.50)->latency, 500u);
  EXPECT_EQ(profile::percentile_record(records, 0.99)->latency, 990u);
  EXPECT_EQ(profile::percentile_record(records, 1.00)->latency, 1000u);
  EXPECT_EQ(profile::percentile_record(records, 0.0)->latency, 10u);
  EXPECT_EQ(profile::percentile_record({}, 0.5), nullptr);
}

TEST(Attribution, CsvRoundTripsAndFromRecordsRebuildsTotals) {
  profile::RequestProfiler p;
  profile::LockWaits locks;
  locks.pt = 7;
  p.on_dispatch(0, 10, 5, 3, 12, locks, 1);
  p.on_serve(0, 0, 40, 8, 2, 0);
  p.on_finish(0, 71);
  p.on_dispatch(1, 20, 9, 0, 0, {}, 0);
  p.on_serve(1, 100, 30, 6, 0, 2);
  p.on_finish(1, 147);
  const profile::TrialAttribution t = p.take();
  ASSERT_EQ(t.completed, 2u);
  ASSERT_EQ(t.residual_errors, 0u);

  const std::string csv = profile::attr_csv(t.requests);
  const profile::TrialAttribution back =
      profile::from_records(profile::parse_attr_csv(csv));
  EXPECT_EQ(harness::first_difference(t, back), std::nullopt);
  // Fixpoint: re-serializing the parsed records reproduces the bytes.
  EXPECT_EQ(profile::attr_csv(back.requests), csv);
}

// --- contention folding -----------------------------------------------------

trace::Event lock_event(const char* name, Cycles ts, Cycles wait, Pid pid,
                        std::int32_t core, std::uint32_t span) {
  trace::Event e;
  e.ts = ts;
  e.dur = wait;
  e.event_name = name;
  e.cat = trace::Category::kLock;
  e.phase = trace::Phase::kComplete;
  e.pid = pid;
  e.core = core;
  e.span = span;
  return e;
}

TEST(Contention, ClassifiesLockTracepointNames) {
  using profile::LockClass;
  EXPECT_EQ(profile::classify("lock.mmap_sem.read"), LockClass::kMmapSem);
  EXPECT_EQ(profile::classify("lock.mmap_sem.write"), LockClass::kMmapSem);
  EXPECT_EQ(profile::classify("lock.pt"), LockClass::kPt);
  EXPECT_EQ(profile::classify("lock.zone"), LockClass::kZone);
  EXPECT_EQ(profile::classify("lock.ipi_drain"), LockClass::kIpiDrain);
  EXPECT_EQ(profile::classify("smp.shootdown"), LockClass::kShootdown);
  EXPECT_EQ(profile::classify("fault"), LockClass::kCount);
}

TEST(Contention, FoldsWaitsIntoClassesBlockedByAndStacks) {
  std::vector<trace::Event> events;
  events.push_back(lock_event("lock.mmap_sem.read", 100, 1 << 10, 7, 0, 1));
  events.push_back(lock_event("lock.mmap_sem.write", 200, 1 << 12, 7, 0, 2));
  events.push_back(lock_event("lock.mmap_sem.read", 300, 1 << 10, 8, 1, 2));
  events.push_back(lock_event("lock.pt", 400, 1 << 5, 0, 1, 3));
  // Not kLock / not complete: must be ignored by the fold.
  trace::Event other = lock_event("fault", 500, 999, 7, 0, 1);
  other.cat = trace::Category::kFault;
  events.push_back(other);

  const profile::ContentionProfile p = profile::fold(events, /*top_n=*/2);
  const auto& mmap_sem =
      p.classes[static_cast<std::size_t>(profile::LockClass::kMmapSem)];
  EXPECT_EQ(mmap_sem.events, 3u);
  EXPECT_EQ(mmap_sem.total_wait, (1 << 10) + (1 << 12) + (1 << 10));
  EXPECT_EQ(mmap_sem.max_wait, 1u << 12);
  EXPECT_EQ(mmap_sem.hist[10], 2u); // two waits in [2^10, 2^11)
  EXPECT_EQ(mmap_sem.hist[12], 1u);

  // Blocked-by: span 2 lost the most (2^12 + 2^10), then span 1; top_n=2
  // drops span 3.
  ASSERT_EQ(p.top_blocked.size(), 2u);
  EXPECT_EQ(p.top_blocked[0].span, 2u);
  EXPECT_EQ(p.top_blocked[0].wait, (1 << 12) + (1 << 10));
  EXPECT_EQ(p.top_blocked[0].events, 2u);
  EXPECT_EQ(p.top_blocked[1].span, 1u);

  // Folded stacks: class;lock;site with pid preferred over core.
  const std::string stacks = profile::folded_stacks(p);
  EXPECT_NE(stacks.find("mmap_sem;lock.mmap_sem.read;pid7 1024\n"), std::string::npos);
  EXPECT_NE(stacks.find("mmap_sem;lock.mmap_sem.write;pid7 4096\n"), std::string::npos);
  EXPECT_NE(stacks.find("pt;lock.pt;core1 32\n"), std::string::npos);
  EXPECT_EQ(stacks.find("fault"), std::string::npos);
}

TEST(Contention, CsvEventFoldMatchesEventFold) {
  std::vector<trace::Event> events;
  events.push_back(lock_event("lock.zone", 10, 300, 4, 2, 9));
  events.push_back(lock_event("lock.ipi_drain", 20, 4000, 0, 3, 0));
  events.push_back(lock_event("lock.mmap_sem.read", 30, 77, 5, 0, 9));

  const profile::ContentionProfile direct = profile::fold(events, 10);
  const profile::ContentionProfile via_csv =
      profile::fold(trace::parse_csv(trace::csv(events)), 10);

  EXPECT_EQ(profile::folded_stacks(via_csv), profile::folded_stacks(direct));
  EXPECT_EQ(profile::render_contention(via_csv), profile::render_contention(direct));
  for (std::size_t c = 0; c < direct.classes.size(); ++c) {
    EXPECT_EQ(via_csv.classes[c].events, direct.classes[c].events);
    EXPECT_EQ(via_csv.classes[c].total_wait, direct.classes[c].total_wait);
  }
}

// --- pure-observer contract -------------------------------------------------

harness::ServerRunConfig tiny_server(harness::Manager manager) {
  harness::ServerRunConfig cfg;
  cfg.manager = manager;
  cfg.seed = 77;
  cfg.arrival.mean_rps = 4000.0;
  cfg.arrival.duration_seconds = 0.1;
  cfg.service.workers = 2;
  cfg.service.session_table_bytes = 64 * MiB;
  cfg.service.object_count = 64;
  cfg.commodity = workloads::no_competition();
  return cfg;
}

TEST(PureObserver, ServerRunDecomposesEveryRequestExactly) {
  harness::ServerRunConfig cfg = tiny_server(harness::Manager::kThp);
  cfg.attribution = true;
  const harness::ServerRunResult r = harness::run_server(cfg);
  const profile::TrialAttribution& t = r.attribution;
  ASSERT_GT(t.completed, 0u);
  EXPECT_EQ(t.completed, r.server.completed);
  EXPECT_EQ(t.residual_errors, 0u);
  std::int64_t lat_sum = 0;
  for (const profile::RequestRecord& rec : t.requests) {
    EXPECT_EQ(rec.sum(), static_cast<std::int64_t>(rec.latency))
        << "request " << rec.index;
    lat_sum += static_cast<std::int64_t>(rec.latency);
  }
  EXPECT_EQ(t.totals.sum(), lat_sum);
  EXPECT_NE(profile::percentile_record(t.requests, 0.99), nullptr);
}

TEST(PureObserver, AttributionOnOffLeavesResultsIdentical) {
  harness::ServerRunConfig off = tiny_server(harness::Manager::kHpmmap);
  harness::ServerRunConfig on = off;
  on.attribution = true;
  const harness::ServerRunResult a = harness::run_server(off);
  harness::ServerRunResult b = harness::run_server(on);
  EXPECT_TRUE(a.attribution.requests.empty());
  EXPECT_EQ(b.attribution.completed, b.server.completed);
  b.attribution = {}; // what attribution adds
  EXPECT_EQ(harness::first_difference(a, b), std::nullopt);
}

/// Strip the trailing `span:u=N` CSV token (always appended last) so a
/// spans-on export can be compared against the spans-off byte stream.
std::string strip_span_tokens(const std::string& csv) {
  std::string out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t nl = csv.find('\n', start);
    if (nl == std::string::npos) {
      nl = csv.size();
    }
    std::string line = csv.substr(start, nl - start);
    const std::size_t tok = line.rfind("span:u=");
    if (tok != std::string::npos && line.find(',', tok) == std::string::npos) {
      line.erase(tok > 0 && line[tok - 1] == '|' ? tok - 1 : tok);
    }
    out += line;
    if (nl < csv.size()) {
      out += '\n';
    }
    start = nl + 1;
  }
  return out;
}

TEST(PureObserver, SpansOnOffIsByteIdenticalUpToSpanTokens) {
  harness::ServerRunConfig off = tiny_server(harness::Manager::kThp);
  off.trace.categories = static_cast<std::uint32_t>(trace::Category::kServer);
  harness::ServerRunConfig on = off;
  on.trace.spans = true;

  const harness::ServerRunResult a = harness::run_server(off);
  harness::ServerRunResult b = harness::run_server(on);

  const std::string csv_off = trace::csv(a.events);
  const std::string csv_on = trace::csv(b.events);
  // Spans off: no span token anywhere — the pre-span byte stream.
  EXPECT_EQ(csv_off.find("span:u="), std::string::npos);
  // Spans on: request-lifecycle events carry their span...
  EXPECT_NE(csv_on.find("span:u="), std::string::npos);
  // ...and that is the ONLY difference between the two exports.
  EXPECT_EQ(strip_span_tokens(csv_on), csv_off);
  // Nor does any other output differ: spans add only each event's span id.
  for (trace::Event& e : b.events) {
    e.span = 0;
  }
  EXPECT_EQ(harness::first_difference(a, b), std::nullopt);
}

TEST(PureObserver, SpannedTrialLoopIsJobsInvariant) {
  harness::ServerRunConfig cfg = tiny_server(harness::Manager::kThp);
  cfg.trace.categories = static_cast<std::uint32_t>(trace::Category::kServer);
  cfg.trace.spans = true;
  cfg.attribution = true;
  const auto serial = harness::run_batch(harness::trial_configs(cfg, 3), /*jobs=*/1);
  const auto parallel = harness::run_batch(harness::trial_configs(cfg, 3), /*jobs=*/4);
  // Trace streams (spans included) and attribution merge identically.
  EXPECT_EQ(harness::first_difference(serial, parallel), std::nullopt);
}

} // namespace
} // namespace hpmmap
