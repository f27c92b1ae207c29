// Unit tests: tracepoint subsystem — flight-recorder ring semantics,
// category gating, clock hook, Chrome-JSON golden output, CSV
// round-trip, metric percentiles, rate-limited logging, and the
// harness-level guarantee that tracing never changes simulation results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "harness/result_fields.hpp"
#include "sim/engine.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace hpmmap {
namespace {

// Tracing is process-global; every test leaves it disabled and empty so
// ordering between tests cannot matter.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::disable_all();
    trace::recorder().set_capacity(trace::FlightRecorder::kDefaultCapacity);
  }
  void TearDown() override {
    trace::disable_all();
    trace::recorder().set_capacity(trace::FlightRecorder::kDefaultCapacity);
    trace::metrics().reset();
  }
};

trace::Event make_event(Cycles ts, const char* event_name, trace::Category cat) {
  trace::Event e;
  e.ts = ts;
  e.event_name = event_name;
  e.cat = cat;
  return e;
}

// --- category gating -------------------------------------------------------

TEST_F(TraceTest, DisabledByDefaultAndMaskGates) {
  EXPECT_FALSE(trace::on(trace::Category::kFault));
  trace::enable(static_cast<std::uint32_t>(trace::Category::kFault) |
                static_cast<std::uint32_t>(trace::Category::kThp));
  EXPECT_TRUE(trace::on(trace::Category::kFault));
  EXPECT_TRUE(trace::on(trace::Category::kThp));
  EXPECT_FALSE(trace::on(trace::Category::kBuddy));
  trace::disable_all();
  EXPECT_FALSE(trace::on(trace::Category::kFault));
}

TEST_F(TraceTest, EmitWhileDisabledIsNoOp) {
  trace::recorder().clear();
  trace::instant(trace::Category::kFault, "x", 1, 0);
  trace::complete(trace::Category::kFault, "y", 0, 10, 1, 0);
  trace::counter(trace::Category::kFault, "z", 1.0);
  EXPECT_EQ(trace::recorder().size(), 0u);
  EXPECT_EQ(trace::recorder().recorded(), 0u);
}

TEST_F(TraceTest, ParseCategories) {
  EXPECT_EQ(trace::parse_categories("all"), trace::kAllCategories);
  EXPECT_EQ(trace::parse_categories("none"), 0u);
  EXPECT_EQ(trace::parse_categories("fault"),
            static_cast<std::uint32_t>(trace::Category::kFault));
  EXPECT_EQ(trace::parse_categories("fault,thp,net"),
            static_cast<std::uint32_t>(trace::Category::kFault) |
                static_cast<std::uint32_t>(trace::Category::kThp) |
                static_cast<std::uint32_t>(trace::Category::kNet));
  EXPECT_FALSE(trace::parse_categories("fault,bogus").has_value());
}

// --- flight recorder -------------------------------------------------------

TEST_F(TraceTest, RingWrapsOverwritingOldest) {
  trace::FlightRecorder ring(4);
  for (Cycles t = 1; t <= 6; ++t) {
    ring.push(make_event(t, "e", trace::Category::kFault));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.recorded(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);
  const std::vector<trace::Event> snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest two (ts 1, 2) were overwritten; snapshot is oldest-first.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].ts, i + 3);
  }
}

TEST_F(TraceTest, SetCapacityClearsCounters) {
  trace::FlightRecorder ring(2);
  ring.push(make_event(1, "e", trace::Category::kFault));
  ring.push(make_event(2, "e", trace::Category::kFault));
  ring.push(make_event(3, "e", trace::Category::kFault));
  EXPECT_EQ(ring.dropped(), 1u);
  ring.set_capacity(8);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST_F(TraceTest, ZeroCapacityClampsToOne) {
  trace::FlightRecorder ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.push(make_event(1, "a", trace::Category::kFault));
  ring.push(make_event(2, "b", trace::Category::kFault));
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.snapshot()[0].ts, 2u);
}

TEST_F(TraceTest, ArgCountClampsToMax) {
  trace::enable(trace::kAllCategories);
  trace::recorder().clear();
  trace::instant(trace::Category::kApp, "many", 1, 0,
                 {trace::Arg::u64("a", 1), trace::Arg::u64("b", 2), trace::Arg::u64("c", 3),
                  trace::Arg::u64("d", 4), trace::Arg::u64("e", 5)});
  const auto snap = trace::recorder().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].arg_count, trace::Event::kMaxArgs);
}

// --- clock hook ------------------------------------------------------------

TEST_F(TraceTest, EngineRegistersAsClock) {
  sim::Engine engine;
  trace::enable(trace::kAllCategories);
  trace::recorder().clear();
  engine.schedule(1000, [] { trace::instant(trace::Category::kApp, "tick", 0, -1); });
  engine.run();
  const auto snap = trace::recorder().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].ts, 1000u);
}

TEST_F(TraceTest, DyingEngineUnregistersClock) {
  { sim::Engine engine; }
  EXPECT_EQ(trace::clock_now(), 0u);
}

// --- Chrome trace-event JSON ----------------------------------------------

TEST_F(TraceTest, ChromeJsonGolden) {
  std::vector<trace::Event> events;
  trace::Event fault;
  fault.ts = 2300;
  fault.dur = 230;
  fault.event_name = "fault";
  fault.cat = trace::Category::kFault;
  fault.phase = trace::Phase::kComplete;
  fault.pid = 7;
  fault.core = 3;
  fault.arg_count = 2;
  fault.args[0] = trace::Arg::str("kind", "Small");
  fault.args[1] = trace::Arg::u64("lock_wait", 5);
  events.push_back(fault);

  trace::Event spawn;
  spawn.ts = 4600;
  spawn.event_name = "proc.spawn";
  spawn.cat = trace::Category::kApp;
  spawn.phase = trace::Phase::kInstant;
  spawn.pid = 9;
  events.push_back(spawn);

  trace::ExportOptions opts;
  opts.clock_hz = 2.3e9; // 2300 cycles = 1 us
  const std::string json = trace::chrome_json(events, opts);
  const std::string expected =
      "[\n"
      "{\"name\":\"fault\",\"cat\":\"fault\",\"ph\":\"X\",\"ts\":1.000,\"pid\":7,\"tid\":3,"
      "\"dur\":0.100,\"args\":{\"kind\":\"Small\",\"lock_wait\":5}},\n"
      "{\"name\":\"proc.spawn\",\"cat\":\"app\",\"ph\":\"i\",\"ts\":2.000,\"pid\":9,"
      "\"tid\":-1,\"s\":\"t\",\"args\":{}}\n"
      "]\n";
  EXPECT_EQ(json, expected);
}

TEST_F(TraceTest, ChromeJsonNormalizesToT0) {
  std::vector<trace::Event> events{make_event(5000, "late", trace::Category::kApp),
                                   make_event(100, "early", trace::Category::kApp)};
  trace::ExportOptions opts;
  opts.clock_hz = 1e6; // 1 cycle = 1 us
  opts.t0 = 1000;
  const std::string json = trace::chrome_json(events, opts);
  // 5000 - 1000 = 4000 us; pre-t0 events clamp to zero.
  EXPECT_NE(json.find("\"ts\":4000.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
}

// --- CSV round trip --------------------------------------------------------

TEST_F(TraceTest, CsvRoundTripIsFixpoint) {
  std::vector<trace::Event> events;
  trace::Event e = make_event(123456789, "mm.compaction", trace::Category::kBuddy);
  e.dur = 42;
  e.phase = trace::Phase::kComplete;
  e.pid = 1001;
  e.core = 2;
  e.arg_count = 3;
  e.args[0] = trace::Arg::u64("zone", 1);
  e.args[1] = trace::Arg::f64("ratio", 0.5);
  e.args[2] = trace::Arg::str("result", "ok");
  events.push_back(e);
  events.push_back(make_event(999, "buddy.split", trace::Category::kBuddy));

  const std::string first = trace::csv(events);
  const std::vector<trace::CsvEvent> parsed = trace::parse_csv(first);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].ts, 123456789u);
  EXPECT_EQ(parsed[0].dur, 42u);
  EXPECT_EQ(parsed[0].phase, 'X');
  EXPECT_EQ(parsed[0].category, "buddy");
  EXPECT_EQ(parsed[0].name, "mm.compaction");
  EXPECT_EQ(parsed[0].pid, 1001u);
  EXPECT_EQ(parsed[0].core, 2);
  ASSERT_EQ(parsed[0].args.size(), 3u);
  EXPECT_EQ(parsed[0].args[0].name, "zone");
  EXPECT_EQ(parsed[0].args[0].kind, 'u');
  EXPECT_EQ(parsed[0].args[0].value, "1");
  EXPECT_EQ(parsed[0].args[1].kind, 'f');
  EXPECT_EQ(parsed[0].args[2].value, "ok");

  // Serialize -> parse -> serialize is a fixpoint.
  const std::string second = trace::csv(parsed);
  EXPECT_EQ(second, first);
  EXPECT_EQ(trace::csv(trace::parse_csv(second)), second);
}

// --- metrics ---------------------------------------------------------------

TEST_F(TraceTest, MetricCountersAndHistograms) {
  trace::metrics().reset();
  trace::metrics().counter("fault.count") += 3;
  trace::metrics().counter("fault.count") += 2;
  for (int i = 1; i <= 100; ++i) {
    trace::metrics().histogram("fault.cycles.small").add(static_cast<double>(i));
  }
  EXPECT_EQ(trace::metrics().counters().at("fault.count"), 5u);
  const trace::Histogram& h = trace::metrics().histograms().at("fault.cycles.small");
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_NEAR(h.p50(), 50.0, 3.0);
  EXPECT_NEAR(h.p95(), 95.0, 3.0);
  EXPECT_NEAR(h.p99(), 99.0, 3.0);

  const std::string report = trace::metrics().report();
  EXPECT_NE(report.find("fault.count"), std::string::npos);
  EXPECT_NE(report.find("fault.cycles.small"), std::string::npos);

  trace::metrics().reset();
  EXPECT_TRUE(trace::metrics().counters().empty());
}

// --- rate-limited logging --------------------------------------------------

TEST_F(TraceTest, LogLimiterBudgets) {
  LogLimiter lim(3);
  EXPECT_TRUE(lim.allow());
  EXPECT_TRUE(lim.allow());
  EXPECT_TRUE(lim.allow());
  EXPECT_FALSE(lim.allow());
  EXPECT_TRUE(lim.just_saturated());
  EXPECT_FALSE(lim.allow());
  EXPECT_FALSE(lim.just_saturated());
  EXPECT_EQ(lim.suppressed(), 2u);
  EXPECT_EQ(lim.calls(), 5u);
  lim.reset();
  EXPECT_TRUE(lim.allow());
  EXPECT_EQ(lim.suppressed(), 0u);
}

// --- end-to-end: tracing must not perturb the simulation -------------------

TEST_F(TraceTest, TracingDoesNotChangeResults) {
  harness::SingleNodeRunConfig cfg;
  cfg.app = "miniMD";
  cfg.manager = harness::Manager::kThp;
  cfg.commodity = workloads::profile_a(2);
  cfg.app_cores = 2;
  cfg.seed = 31;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;

  const harness::RunResult off = harness::run_single_node(cfg);
  cfg.trace.categories = trace::kAllCategories;
  harness::RunResult on = harness::run_single_node(cfg);

  EXPECT_FALSE(on.events.empty());
  EXPECT_TRUE(off.events.empty());
  // What tracing adds: the event stream, and the per-kind spreads
  // rebuilt from it.
  on.events.clear();
  for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
    on.by_kind_summaries[k].stdev_cycles = off.by_kind_summaries[k].stdev_cycles;
  }
  EXPECT_EQ(harness::first_difference(off, on), std::nullopt);
}

TEST_F(TraceTest, TracedRunExportsValidStreams) {
  harness::SingleNodeRunConfig cfg;
  cfg.app = "HPCCG";
  cfg.manager = harness::Manager::kHpmmap;
  cfg.commodity = workloads::no_competition();
  cfg.app_cores = 2;
  cfg.seed = 5;
  cfg.trace.categories = trace::kAllCategories;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;
  const harness::RunResult r = harness::run_single_node(cfg);
  ASSERT_FALSE(r.events.empty());

  // The JSON stream is a bracketed array with the mandatory keys.
  const std::string json = trace::chrome_json(r.events);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":"), std::string::npos);

  // Every retained event survives the CSV round trip.
  const std::vector<trace::CsvEvent> parsed = trace::parse_csv(trace::csv(r.events));
  EXPECT_EQ(parsed.size(), r.events.size());

  // The module path emitted its registration and backing events.
  bool saw_register = false;
  for (const trace::Event& e : r.events) {
    if (e.name() == "hpmmap.register") {
      saw_register = true;
    }
  }
  EXPECT_TRUE(saw_register);
}

} // namespace
} // namespace hpmmap
