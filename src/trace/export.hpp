// Trace exporters: Chrome trace-event JSON (loads directly in Perfetto
// or chrome://tracing, with events on per-core tracks) and a flat CSV
// for scripted analysis. CSV parses back losslessly so traces can
// round-trip through text tooling.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hpp"

namespace hpmmap::trace {

struct ExportOptions {
  /// Virtual clock rate used to convert cycles to the microsecond
  /// timestamps the Chrome trace format expects.
  double clock_hz = 2.3e9;
  /// Cycle count subtracted from every timestamp (experiment start).
  Cycles t0 = 0;
};

/// Chrome trace-event JSON: a plain array of event objects, each with
/// ts (µs) / ph / name / cat / pid / tid / args. tid is the core so
/// Perfetto lays events out on per-core tracks; core -1 events land on
/// a synthetic track per pid.
///
/// Events carrying a causal span (span != 0) additionally get a `span`
/// arg plus Perfetto flow records (`ph:"s"` on the span's first event,
/// `ph:"t"` steps after) with id = span, so a request's path across
/// engine actors renders as connected arrows. Span-free events emit
/// exactly the pre-span byte stream.
[[nodiscard]] std::string chrome_json(const std::vector<Event>& events,
                                      const ExportOptions& opts = {});

/// CSV with header `ts_cycles,dur_cycles,phase,category,name,pid,core,args`.
/// Args serialize as `name:u=123|name:f=1.5|name:s=text`. A nonzero
/// causal span rides as a trailing `span:u=N` arg token (absent when
/// span == 0, so spans-off output is byte-identical to pre-span builds).
[[nodiscard]] std::string csv(const std::vector<Event>& events);

bool write_csv(const std::string& path, const std::vector<Event>& events);

/// An event parsed back from CSV. Strings are owned (the zero-copy
/// literal contract of Event does not survive text).
struct CsvEvent {
  Cycles ts = 0;
  Cycles dur = 0;
  char phase = 'i';
  std::string category;
  std::string name;
  Pid pid = 0;
  std::int32_t core = -1;
  struct Arg {
    std::string name;
    char kind = 'u'; // 'u' | 'f' | 's'
    std::string value;
  };
  std::vector<Arg> args;
};

/// Parse csv() output back into structured events (header row skipped).
[[nodiscard]] std::vector<CsvEvent> parse_csv(std::string_view text);

/// Re-serialize parsed events; `csv(parse_csv(csv(ev)))` is a fixpoint.
[[nodiscard]] std::string csv(const std::vector<CsvEvent>& events);

/// Causal span of a parsed event (the `span:u=N` arg token); 0 if none.
[[nodiscard]] std::uint32_t span_of(const CsvEvent& e);

/// One-line human rendering of an event for diagnostics and anomaly
/// dumps: `name cat=... ts=... dur=... pid=... core=... [span=N] args...`.
/// Includes the causal span when present so flight-recorder dumps can
/// name the victim request, not just the raw tracepoint.
[[nodiscard]] std::string describe(const Event& e);

} // namespace hpmmap::trace
