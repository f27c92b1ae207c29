// Unit tests: harness::first_difference walks every listed field of a
// result and names the first leaf that differs, bit for bit.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "harness/result_fields.hpp"

namespace hpmmap {
namespace {

using harness::first_difference;
using Points = std::vector<harness::SeriesPoint>;

harness::RunResult traced_run() {
  harness::RunResult r;
  trace::Event e;
  e.event_name = "fault";
  e.arg_count = 2;
  e.args[0] = trace::Arg::u64("cost", 900);
  e.args[1] = trace::Arg::str("kind", "small");
  r.events = {e, e};
  introspect::TimeSeries s;
  s.capacity = 4;
  for (const Cycles ts : {0u, 100u, 200u}) {
    s.append(ts, 0.005 * static_cast<double>(ts));
  }
  r.telemetry = {s, s};
  return r;
}

harness::ServerRunResult served_run() {
  harness::ServerRunResult r;
  r.slo = {{"lat<2ms", 2000.0, 3}, {"lat<10ms", 10000.0, 1}};
  r.attribution.requests.resize(50);
  return r;
}

TEST(ResultFields, EqualResultsHaveNoDifference) {
  EXPECT_EQ(first_difference(traced_run(), traced_run()), std::nullopt);
  EXPECT_EQ(first_difference(served_run(), served_run()), std::nullopt);
  EXPECT_EQ(first_difference(harness::SmpRunResult{}, harness::SmpRunResult{}), std::nullopt);
  EXPECT_EQ(first_difference(Points(3), Points(3)), std::nullopt);
  // Trace strings compare by content, not by address.
  harness::RunResult copied = traced_run();
  const std::string kind = "small";
  copied.events[1].args[1].value.str = kind.c_str();
  EXPECT_EQ(first_difference(traced_run(), copied), std::nullopt);
}

TEST(ResultFields, OneChangedLeafGivesItsPath) {
  harness::RunResult run = traced_run();
  run.telemetry[1].points[2].value = 9.0;
  EXPECT_EQ(first_difference(traced_run(), run), "RunResult #17 [1] #3 [2] #1");
  run = traced_run();
  run.events[1].args[1].value.str = "large";
  EXPECT_EQ(first_difference(traced_run(), run), "RunResult #3 [1] #9 [1] #2");
  run = traced_run();
  run.faults.count[2] = 1;
  EXPECT_EQ(first_difference(traced_run(), run), "RunResult #2");

  harness::ServerRunResult served = served_run();
  served.attribution.requests[41].fault = 8;
  EXPECT_EQ(first_difference(served_run(), served), "ServerRunResult #17 #0 [41] #6");
  served = served_run();
  served.slo[1].label = "lat<11ms";
  EXPECT_EQ(first_difference(served_run(), served), "ServerRunResult #4 [1] #0");

  harness::SmpRunResult smp;
  smp.injected[2].fired = 1;
  EXPECT_EQ(first_difference(harness::SmpRunResult{}, smp), "SmpRunResult #11 [2] #1");

  Points points(3);
  points[1].fault_cycles[0] = 5;
  EXPECT_EQ(first_difference(Points(3), points), "vector<SeriesPoint> [1] #5");
  // A list of another length differs at its length word.
  EXPECT_EQ(first_difference(Points(3), Points(2)), "vector<SeriesPoint>");
}

TEST(ResultFields, NegativeZeroDiffersFromZero) {
  harness::SeriesPoint negative;
  negative.stdev_seconds = -0.0;
  EXPECT_EQ(first_difference(harness::SeriesPoint{}, negative), "SeriesPoint #1");
}

} // namespace
} // namespace hpmmap
