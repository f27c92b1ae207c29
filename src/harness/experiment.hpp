// Experiment harness: builds a configured machine, co-locates an HPC job
// with a commodity profile, runs it to completion on the event engine,
// and reports what the paper's figures report (runtime mean/stdev over
// trials, per-kind fault statistics, trace-event streams).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "introspect/sampler.hpp"
#include "linux_mm/fault.hpp"
#include "profile/attribution.hpp"
#include "linux_mm/smp.hpp"
#include "serving/arrival.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/trace.hpp"
#include "verify/fault_inject.hpp"
#include "workloads/profiles.hpp"
#include "workloads/server_app.hpp"

namespace hpmmap::harness {

/// The three memory-manager configurations of §IV: for THP, THP manages
/// both workloads; for HugeTLBfs, pools back the app and THP is off; for
/// HPMMAP, the module backs the app and THP manages the commodity side.
enum class Manager : std::uint8_t { kThp, kHugetlbfs, kHpmmap };

[[nodiscard]] constexpr std::string_view name(Manager m) noexcept {
  switch (m) {
    case Manager::kThp:       return "Linux (THP)";
    case Manager::kHugetlbfs: return "Linux (HugeTLBfs)";
    case Manager::kHpmmap:    return "HPMMAP";
  }
  return "?";
}

/// Tracing setup for a run. The harness owns the global flight recorder
/// for the duration of the run: it sizes and clears the ring, enables the
/// requested categories, and snapshots the buffer into the RunResult
/// before disabling tracing again. Tracing never perturbs results — the
/// instrumentation consumes no randomness and charges no cycles.
struct TraceConfig {
  /// Bitwise OR of trace::Category values; 0 = tracing off.
  std::uint32_t categories = 0;
  /// Flight-recorder ring capacity in events (oldest overwritten beyond).
  std::size_t capacity = std::size_t{1} << 20;
  /// Stamp causal spans (request/actor ids) on emitted events. A pure
  /// observer: off (the default) keeps every export byte-identical to
  /// pre-span builds (DESIGN.md §15).
  bool spans = false;

  [[nodiscard]] bool on() const noexcept { return categories != 0; }
};

/// Verification knobs shared by both run shapes. The harness arms the
/// process-global fault injector after the node(s) boot (boot paths
/// assert on allocation success and must never see injected failures)
/// and disarms it before returning; audits walk every node's mm state.
struct VerifyConfig {
  /// Injection plan for the run; an all-disabled plan leaves the
  /// injector disarmed.
  verify::InjectionPlan inject{};
  /// Run the MmAuditor over every node when the run completes.
  bool audit = false;
  /// Debug mode: additionally audit at the instant of every injected
  /// fault (all injection points fire before mutating state, so the
  /// sweep sees a consistent snapshot).
  bool audit_on_injection = false;
};

/// Introspection knobs shared by both run shapes. Sampling starts at
/// job launch (trace_t0) and reads pure observers only — a sampled run
/// is byte-identical to an unsampled one in every other output (the
/// contract tests/test_introspect.cpp pins). Telemetry rides per-run
/// state, so BatchRunner's submission-order merge keeps `--jobs N`
/// byte-identical too.
struct IntrospectConfig {
  /// Virtual cycles between telemetry samples; 0 = sampling off.
  Cycles sample_interval = 0;
  /// Ring capacity per series (oldest samples overwritten beyond).
  std::size_t max_samples = 4096;
  /// Capture the full procfs view (RunResult::procfs_text) at run end,
  /// before the node is torn down.
  bool procfs_dump = false;

  [[nodiscard]] bool sampling() const noexcept { return sample_interval > 0; }
};

struct SingleNodeRunConfig {
  std::string app = "miniMD";
  Manager manager = Manager::kThp;
  workloads::CommodityProfile commodity{};
  std::uint32_t app_cores = 8;
  std::uint64_t seed = 1;
  TraceConfig trace{};
  /// Scale the app footprint/iterations (quick modes for tests).
  double footprint_scale = 1.0;
  double duration_scale = 1.0;
  /// How long the commodity builds churn before measurement — how deeply
  /// aged the world is at the capture point. Pre-capture state, so the
  /// snapshot contract requires it to match between capture and resume.
  double warmup_seconds = 1.5;
  VerifyConfig verify{};
  IntrospectConfig introspect{};
};

/// Per-kind fault-cost distribution, as Figure 2/3 tabulates.
struct FaultKindSummary {
  std::uint64_t total_faults = 0;
  double avg_cycles = 0.0;
  double stdev_cycles = 0.0;
};

struct RunResult {
  double runtime_seconds = 0.0;
  /// Clock of the simulated machine — converts trace cycles to seconds.
  double clock_hz = 0.0;
  mm::FaultStats faults;
  /// Flight-recorder snapshot for the whole run (warmup included) when
  /// tracing was enabled. Not globally time-sorted: scheduled completions
  /// (khugepaged merges) interleave — sort by ts before plotting.
  std::vector<trace::Event> events;
  std::uint64_t trace_dropped = 0;
  /// Pids of the job's ranks, for filtering app events out of `events`.
  std::vector<Pid> app_pids;
  Cycles trace_t0 = 0; // job start, for normalizing trace time
  std::uint64_t thp_merges = 0;
  std::uint64_t hpmmap_spurious_faults = 0;
  /// Engine events executed over the whole run (warmup included) — the
  /// denominator of the events/sec perf summary.
  std::uint64_t events_fired = 0;

  // --- verification (populated when VerifyConfig enabled any of it) ---
  /// Per-point injector counters for the run (calls seen, faults fired).
  std::array<verify::PointStats, verify::kInjectPointCount> injected{};
  /// Audit totals across the end-of-run audit and any on-injection
  /// audits; `audit_report` is the human-readable summary (the first
  /// failing audit wins so a transient violation is never papered over).
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_violations = 0;
  std::string audit_report;
  /// Fallback/retry counters proving injected failures degraded
  /// gracefully rather than crashing.
  std::uint64_t thp_fault_fallbacks = 0;
  std::uint64_t thp_merges_aborted = 0;
  std::uint64_t hugetlb_pool_exhausted = 0;

  // --- introspection (populated when IntrospectConfig enabled any of it) ---
  /// Telemetry time series sampled over the job (t0 = trace_t0), one
  /// fixed-order block per node. Empty unless sampling was on.
  std::vector<introspect::TimeSeries> telemetry;
  /// Full procfs rendering of every node at run end (before teardown).
  std::string procfs_text;

  [[nodiscard]] std::uint64_t injected_total() const noexcept {
    std::uint64_t total = 0;
    for (const verify::PointStats& s : injected) {
      total += s.fired;
    }
    return total;
  }

  [[nodiscard]] FaultKindSummary& by_kind(mm::FaultKind k) noexcept {
    const auto i = static_cast<std::size_t>(k);
    HPMMAP_ASSERT(i < mm::kFaultKindCount, "fault kind out of range");
    return by_kind_summaries[i];
  }
  [[nodiscard]] const FaultKindSummary& by_kind(mm::FaultKind k) const noexcept {
    const auto i = static_cast<std::size_t>(k);
    HPMMAP_ASSERT(i < mm::kFaultKindCount, "fault kind out of range");
    return by_kind_summaries[i];
  }

  std::array<FaultKindSummary, mm::kFaultKindCount> by_kind_summaries{};
};

/// One app-rank page fault, reconstructed from the trace stream. This is
/// what the Figure 4/5 scatter plots draw.
struct FaultSample {
  Cycles when = 0; // absolute virtual time (subtract RunResult::trace_t0)
  mm::FaultKind kind = mm::FaultKind::kSmall;
  Cycles cost = 0;
  Pid pid = 0;
};

/// Extract the job ranks' "fault" complete-events from `r.events`, sorted
/// by time. Empty unless the run traced Category::kFault.
[[nodiscard]] std::vector<FaultSample> app_fault_samples(const RunResult& r);

/// Run one single-node trial (Dell R415 model).
[[nodiscard]] RunResult run_single_node(const SingleNodeRunConfig& config);

struct ScalingRunConfig {
  std::string app = "HPCCG";
  Manager manager = Manager::kThp; // HugeTLBfs omitted at scale (§IV-C)
  workloads::CommodityProfile commodity{};
  std::uint32_t nodes = 1;
  std::uint32_t ranks_per_node = 4;
  std::uint64_t seed = 1;
  TraceConfig trace{};
  double footprint_scale = 1.0;
  double duration_scale = 1.0;
  /// Build-churn warmup before measurement (pre-capture state; see
  /// SingleNodeRunConfig::warmup_seconds).
  double warmup_seconds = 1.5;
  VerifyConfig verify{};
  IntrospectConfig introspect{};
};

// Multi-node trials (Sandia Xeon cluster model, 1 GbE) run on per-node
// engines: run_cluster and capture_scaling in harness/cluster.hpp.

// --- snapshot/resume (DESIGN.md §12) ---------------------------------------
//
// capture_*() boots the configured world, ages it to the warmup quiesce
// point (builds at steady state, page cache warm, freelists fragmented)
// and deep-copies everything into a WorldImage. run_*(config, image)
// boots a structurally identical world with aging skipped, overwrites it
// with the image, and runs the measurement phase — producing a result
// byte-identical to the straight run of the same config.
//
// The resumed config must match the captured one in every field that
// shapes the world before the job launches (manager, commodity profile,
// seed, footprint_scale, warmup_seconds, trace, verify); only the
// measurement-phase fields — app, app_cores, duration_scale, introspect
// — may differ.
// That is what makes aging amortizable: one capture fans out to every
// member of a sweep row (see run_trials_snapshotted in batch.hpp).

[[nodiscard]] snapshot::WorldImage capture_single_node(const SingleNodeRunConfig& config);
[[nodiscard]] RunResult run_single_node(const SingleNodeRunConfig& config,
                                        const snapshot::WorldImage& image);

/// Mean/stdev of runtime over `trials` seeds — one point of Figure 7/8.
struct SeriesPoint {
  double mean_seconds = 0.0;
  double stdev_seconds = 0.0;
  std::uint32_t trials = 0;
  /// Total engine events executed across the trials (perf summaries).
  std::uint64_t events = 0;
  /// App faults handled across the trials, by kind, with the simulated
  /// mm cycles charged per kind — the per-subsystem cost accounting the
  /// --perf-summary report breaks down.
  std::array<std::uint64_t, mm::kFaultKindCount> fault_counts{};
  std::array<std::uint64_t, mm::kFaultKindCount> fault_cycles{};

  [[nodiscard]] std::uint64_t total_faults() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t n : fault_counts) {
      total += n;
    }
    return total;
  }
};

// --- serving runs ----------------------------------------------------------

/// One serving trial: the request/response service co-located with the
/// commodity profile, driven by an open-loop arrival schedule. The same
/// schedule (seed-determined) replays against every manager — common
/// random numbers, so SLO deltas are manager effects, not luck.
struct ServerRunConfig {
  Manager manager = Manager::kThp;
  workloads::ServerConfig service{}; // policy/zone overwritten from `manager`
  serving::ArrivalConfig arrival{};
  workloads::CommodityProfile commodity{};
  std::uint64_t seed = 1;
  TraceConfig trace{};
  /// Scales the arrival window (quick modes for tests).
  double duration_scale = 1.0;
  /// Build-churn warmup before the open-loop window starts (pre-capture
  /// state; see SingleNodeRunConfig::warmup_seconds).
  double warmup_seconds = 1.5;
  VerifyConfig verify{};
  IntrospectConfig introspect{};
  /// Record the per-request latency decomposition (pure observer; the
  /// result lands in ServerRunResult::attribution).
  bool attribution = false;
};

/// Latency tails in microseconds: streaming P² estimates plus the exact
/// reservoir cross-check (serving/slo.hpp).
struct ServerTailSummary {
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double exact_p50_us = 0.0;
  double exact_p99_us = 0.0;
  double exact_p999_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
  std::uint64_t samples = 0;
};

struct SloOutcome {
  std::string label;
  double budget_us = 0.0;
  std::uint64_t violations = 0;
};

struct ServerRunResult {
  /// Serving window wall time (arrival epoch to last drain).
  double runtime_seconds = 0.0;
  double clock_hz = 0.0;
  workloads::ServerStats server;
  ServerTailSummary tail;
  std::vector<SloOutcome> slo;
  std::uint64_t slo_total = 0; // violations summed over budgets
  mm::FaultStats faults;

  std::vector<trace::Event> events;
  std::uint64_t trace_dropped = 0;
  Cycles trace_t0 = 0;
  std::uint64_t events_fired = 0;

  std::array<verify::PointStats, verify::kInjectPointCount> injected{};
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_violations = 0;
  std::string audit_report;

  std::vector<introspect::TimeSeries> telemetry;
  std::string procfs_text;

  /// Per-request latency decomposition (empty unless
  /// ServerRunConfig::attribution was set).
  profile::TrialAttribution attribution;
};

/// Run one serving trial (Dell R415 model). Budgets default to 2 ms and
/// 10 ms when `config.service.budgets` is empty.
[[nodiscard]] ServerRunResult run_server(const ServerRunConfig& config);

/// Snapshot/resume for serving runs: capture at the warmup quiesce point
/// (before the arrival schedule is generated), resume for measurement.
/// Same matching contract as the single-node pair above.
[[nodiscard]] snapshot::WorldImage capture_server(const ServerRunConfig& config);
[[nodiscard]] ServerRunResult run_server(const ServerRunConfig& config,
                                         const snapshot::WorldImage& image);

// --- SMP contention runs (DESIGN.md §14) ------------------------------------

/// The three fault-path generations the SMP contention bench sweeps:
/// every zone/PT lock mm-wide and every shootdown immediate (the 1999
/// kernel); per-CPU page-frame caches + sharded PT locks + batched
/// shootdowns (today's kernel); and HPMMAP, where per-process
/// management touches no shared Linux lock at all (§III-A).
enum class SmpVariant : std::uint8_t { kLinux1999, kLinuxToday, kHpmmap };

[[nodiscard]] constexpr std::string_view name(SmpVariant v) noexcept {
  switch (v) {
    case SmpVariant::kLinux1999: return "Linux-1999";
    case SmpVariant::kLinuxToday: return "Linux-today";
    case SmpVariant::kHpmmap:    return "HPMMAP";
  }
  return "?";
}

struct SmpRunConfig {
  SmpVariant variant = SmpVariant::kLinuxToday;
  std::uint32_t cores = 4;
  std::uint64_t rounds = 6;
  std::uint64_t slab_bytes = 2 * 1024 * 1024;
  std::uint64_t seed = 1;
  /// Ablation overrides on top of the variant's generation defaults
  /// (ignored for kHpmmap, which runs no SmpDomain).
  std::optional<bool> pcp{};
  std::optional<bool> sharded_pt_locks{};
  std::optional<bool> batched_shootdowns{};
  TraceConfig trace{};
  VerifyConfig verify{};
};

struct SmpRunResult {
  std::uint32_t cores = 0;
  std::uint64_t pages_touched = 0;
  /// Virtual time from storm start to the last worker's finish.
  double seconds = 0.0;
  /// Aggregate demand-fault throughput: pages_touched / seconds.
  double faults_per_sec = 0.0;
  double clock_hz = 0.0;
  /// Lock-wait/pcp/shootdown counters (all zero for kHpmmap).
  mm::SmpStats smp{};
  mm::FaultStats faults;
  std::uint64_t events_fired = 0;

  std::vector<trace::Event> events;
  std::uint64_t trace_dropped = 0;
  Cycles trace_t0 = 0;

  std::array<verify::PointStats, verify::kInjectPointCount> injected{};
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_violations = 0;
  std::string audit_report;
};

/// One SMP fault-storm trial: `cores` worker actors hammer one node's
/// fault path concurrently (Dell R415 model, socket grid widened to
/// `cores`, THP off, pristine boot).
[[nodiscard]] SmpRunResult run_smp(const SmpRunConfig& config);

/// Run a (cores x variant) grid on the batch runner at
/// harness::default_jobs() parallelism. Results come back in config
/// order — byte-identical for any jobs value.
[[nodiscard]] std::vector<SmpRunResult> run_smp_batch(const std::vector<SmpRunConfig>& configs);

// Trial loops (run_trials) and whole-sweep fan-out live in batch.hpp.

/// Flatten per-trial telemetry into one export-ready stream: each trial's
/// series gain a `trial="N"` label (N = submission index), concatenated in
/// trial order. Because batch trials merge in submission order, the result
/// is byte-identical for any --jobs value once exported.
[[nodiscard]] std::vector<introspect::TimeSeries> merged_telemetry(
    const std::vector<RunResult>& runs);

} // namespace hpmmap::harness
