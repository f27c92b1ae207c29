// Exact equality of harness results, shared by the determinism tests: a
// resumed, re-parallelised or snapshot-swept run must reproduce every
// compared field of its reference run. Doubles compare with ==, and a
// SeriesPoint's doubles bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "harness/experiment.hpp"
#include "introspect/export.hpp"
#include "trace/trace.hpp"

namespace hpmmap {

inline void expect_args_equal(const trace::Event& a, const trace::Event& b, std::size_t i) {
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

inline void expect_events_equal(const std::vector<trace::Event>& a,
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
    EXPECT_EQ(a[i].span, b[i].span) << "event " << i;
    expect_args_equal(a[i], b[i], i);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

inline void expect_telemetry_equal(const harness::RunResult& a, const harness::RunResult& b) {
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
  // The exported files are byte-identical too.
  EXPECT_EQ(introspect::openmetrics(a.telemetry), introspect::openmetrics(b.telemetry));
  EXPECT_EQ(introspect::telemetry_csv(a.telemetry), introspect::telemetry_csv(b.telemetry));
}

/// Full-result equality, trace stream and telemetry included. A resumed
/// run must replay the straight run's event stream, so nothing — not even
/// a stdev in the last ulp — may differ.
inline void expect_run_equal(const harness::RunResult& a, const harness::RunResult& b) {
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
  expect_telemetry_equal(a, b);
}

/// One SeriesPoint, its doubles bit for bit.
inline void expect_point_equal(const harness::SeriesPoint& a, const harness::SeriesPoint& b,
                               std::size_t i = 0) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_seconds),
            std::bit_cast<std::uint64_t>(b.mean_seconds))
      << "point " << i << ": mean " << a.mean_seconds << " vs " << b.mean_seconds;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.stdev_seconds),
            std::bit_cast<std::uint64_t>(b.stdev_seconds))
      << "point " << i << ": stdev " << a.stdev_seconds << " vs " << b.stdev_seconds;
  EXPECT_EQ(a.trials, b.trials) << "point " << i;
  EXPECT_EQ(a.events, b.events) << "point " << i;
  EXPECT_EQ(a.fault_counts, b.fault_counts) << "point " << i;
  EXPECT_EQ(a.fault_cycles, b.fault_cycles) << "point " << i;
}

inline void expect_points_equal(const std::vector<harness::SeriesPoint>& a,
                                const std::vector<harness::SeriesPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_point_equal(a[i], b[i], i);
  }
}

} // namespace hpmmap
