// Bench regression diffing: compare two BENCH_*.json self-reports and
// produce a pass/fail verdict with per-metric deltas.
//
// The parser is a deliberately small JSON-subset reader (objects,
// numbers, strings, booleans, flat arrays) that flattens nesting with
// dotted keys: {"baseline":{"events_per_sec":1.0}} becomes
// "baseline.events_per_sec". That covers every file the benches emit
// without pulling in a JSON dependency.
//
// The gate logic is machine-independence-aware: absolute throughput
// numbers (events/sec, wall seconds) vary wildly across runners, so by
// default only the `improvement_ratio` keys — ratios of simulated time
// (BENCH_smp, BENCH_server, BENCH_cluster), identical on any host — and
// the `speedup` keys are gated, and a false `deterministic_match` flag
// fails outright. Host throughput is gated only with an explicit key
// list, between two builds run on the same host. Everything shared and
// numeric is still reported as an informational delta.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hpmmap::introspect {

/// Scalars of one bench JSON, flattened with dotted keys.
struct BenchDoc {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
  std::map<std::string, bool> bools;
};

/// Parse a bench JSON document; nullopt on malformed input.
[[nodiscard]] std::optional<BenchDoc> parse_bench_json(std::string_view text);

struct MetricDelta {
  std::string key;
  double baseline = 0.0;
  double current = 0.0;
  /// current / baseline; 0 when the baseline is 0.
  double ratio = 0.0;
  bool gated = false;     // participates in the pass/fail verdict
  bool regressed = false; // gated and beyond the threshold
};

struct DiffResult {
  std::vector<MetricDelta> deltas; // shared numeric keys, sorted by key
  std::vector<std::string> notes;  // verdict-affecting observations
  bool pass = true;
  /// The gate threshold this diff applied — format_diff prints it in the
  /// verdict line so per-bench --threshold-for overrides are auditable.
  double threshold = 0.0;

  [[nodiscard]] std::size_t regressions() const noexcept {
    std::size_t n = 0;
    for (const MetricDelta& d : deltas) {
      n += d.regressed ? 1 : 0;
    }
    return n;
  }
};

/// One document from several rounds of the same bench: each number is the
/// median of the rounds that report it (the mean of the middle two for an
/// even count), each flag true only if every round says true, and each
/// string the first round's. Host rates drift in phases on shared
/// machines; the per-key median over alternating rounds resolves what a
/// single pair cannot.
[[nodiscard]] BenchDoc median_of(const std::vector<BenchDoc>& rounds);

/// Keys gated by default: every key ending in `improvement_ratio` or
/// `speedup` (higher is better, and a ratio, not an absolute host rate).
[[nodiscard]] bool gated_by_default(std::string_view key);

/// Compare `current` against `baseline`. A gated metric regresses when
/// it falls below baseline * (1 - threshold). Non-numeric disagreements
/// that matter (a false deterministic_match, a changed bench identity)
/// fail via notes. `gate_keys` overrides the default gate set when
/// non-empty (exact key match).
[[nodiscard]] DiffResult diff_bench(const BenchDoc& baseline, const BenchDoc& current,
                                    double threshold,
                                    const std::vector<std::string>& gate_keys = {});

/// A gate threshold as given on the command line: the text must parse
/// completely as a number in [0, 1). A threshold of 1 or more would put
/// the floor baseline * (1 - t) at or below zero, so nothing could ever
/// regress. nullopt on anything else.
[[nodiscard]] std::optional<double> parse_threshold(std::string_view text);

/// Human-readable report of a diff (one line per delta plus notes).
[[nodiscard]] std::string format_diff(const DiffResult& result, std::string_view title);

} // namespace hpmmap::introspect
