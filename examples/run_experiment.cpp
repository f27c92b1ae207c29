// General experiment driver: run any paper configuration from the
// command line without writing C++.
//
//   run_experiment --app miniFE --manager hpmmap --profile B --cores 8
//                  --trials 5 [--nodes 4] [--scale 0.5] [--duration 0.2]
//                  [--seed 42] [--jobs N] [--perf-summary]
//                  [--trace] [--trace-out FILE] [--trace-cat CATS]
//
// With --nodes > 1 the run uses the Sandia 1 GbE cluster model
// (profiles C/D); otherwise the Dell R415 single-node model
// (profiles A/B or "none").
//
// --trace-out writes the run's flight-recorder contents as Chrome
// trace-event JSON (open in https://ui.perfetto.dev or chrome://tracing)
// plus a FILE.csv twin, and prints the counter/histogram report.
//
// --sample-interval/--metrics-out add engine-driven telemetry sampling:
// OpenMetrics text + CSV twin on disk, and Perfetto counter tracks
// spliced into the --trace-out JSON when both are given. --procfs-dump
// prints the kernel-style /proc view of every node at run end.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "cluster/network.hpp"
#include "harness/batch.hpp"
#include "harness/cluster.hpp"
#include "hw/machine.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "introspect/export.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "verify/fault_inject.hpp"

namespace {

using namespace hpmmap;

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --experiment E   hpc | server | smp                        (default hpc)\n"
      "                   server: open-loop request/response service with\n"
      "                   tail-latency SLO accounting (see --rate/--shape/--slo)\n"
      "                   smp: per-core fault-storm on one node (DESIGN.md §14);\n"
      "                   --cores sets the storm width, --trace records the\n"
      "                   lock/fault stream mmprof folds into contention stacks\n"
      "  --smp-variant V  smp: 1999 | today | hpmmap                (default today)\n"
      "  --app NAME       HPCCG | CoMD | miniMD | miniFE | LAMMPS   (default HPCCG)\n"
      "  --manager M      thp | hugetlbfs | hpmmap                  (default hpmmap)\n"
      "  --profile P      none | A | B (single node) | C | D (cluster) (default A)\n"
      "  --cores N        app cores on the single node              (default 8)\n"
      "  --nodes N        cluster nodes; >1 selects the 1GbE testbed (default 1)\n"
      "  --cluster-jobs N drive the per-node event engines of each cluster run\n"
      "                   with N worker threads; 0 = all hardware threads.\n"
      "                   Results are byte-identical for any N. Without it,\n"
      "                   multi-node trials run one worker each, --jobs at once\n"
      "  --topology T     interconnect for the cluster collectives:\n"
      "                   flat | tree | fat-tree (default flat; flat reproduces\n"
      "                   the paper's single-switch model, tree needs a\n"
      "                   power-of-two node count)\n"
      "  --trials N       repetitions with derived seeds            (default 3)\n"
      "  --scale F        footprint scale                           (default 1.0)\n"
      "  --duration F     iteration-count scale                     (default 0.1)\n"
      "  --seed N         base RNG seed                             (default 42)\n"
      "  --rate RPS       server: mean request rate                 (default 2000)\n"
      "  --shape S        server: poisson | bursty | diurnal        (default poisson)\n"
      "  --workers N      server: worker processes (= cores)        (default 4)\n"
      "  --queue-depth N  server: admission queue capacity          (default 64)\n"
      "  --slo MS[,MS..]  server: latency budgets in milliseconds   (default 2,10)\n"
      "  --jobs N         worker threads for the trial loop; 0 = all hardware\n"
      "                   threads (default 0; results identical for any value)\n"
      "  --perf-summary   append simulator throughput after the run: engine\n"
      "                   events/sec, mm faults/sec, per-kind mm cycle totals,\n"
      "                   and (when tracing) the mm counters from the metrics\n"
      "                   registry\n"
      "  --trace          record the fault trace and print a summary\n"
      "  --trace-out FILE write Chrome trace JSON to FILE and CSV to FILE.csv;\n"
      "                   with sampling on, telemetry counter tracks are spliced\n"
      "                   into the JSON as Perfetto counters\n"
      "  --trace-cat CATS categories for --trace-out: comma list or 'all'\n"
      "                   (fault,buddy,thp,hugetlb,module,sched,net,app,harness,\n"
      "                   verify,server,lock)\n"
      "  --spans          stamp causal span ids (request/actor) on traced events;\n"
      "                   spans show up as a span:u= arg in the CSV, an args.span\n"
      "                   field plus flow links in the Perfetto JSON, and feed\n"
      "                   mmprof's blocked-by attribution. Pure observer: every\n"
      "                   other output is byte-identical with spans off\n"
      "  --attr-out FILE  server: record the per-request latency decomposition\n"
      "                   (queue/slab/fault/lock-class/IPI/miss/compute/stretch),\n"
      "                   print the attribution report and write the per-request\n"
      "                   CSV to FILE for mmprof --attr. Buckets sum exactly to\n"
      "                   each request's measured latency on the virtual clock\n"
      "  --sample-interval N  sample mm telemetry every N virtual cycles\n"
      "                   (0 = off; sampling never perturbs results)\n"
      "  --metrics-out FILE   write sampled telemetry as OpenMetrics text to\n"
      "                   FILE plus a FILE.csv twin (implies a 50M-cycle\n"
      "                   interval if --sample-interval is unset); trial runs\n"
      "                   merge with trial=\"N\" labels, byte-identical for\n"
      "                   any --jobs value\n"
      "  --procfs-dump    print /proc-style snapshots (buddyinfo, meminfo,\n"
      "                   vmstat, pagetypeinfo, per-process smaps, hpmmap) at\n"
      "                   run end\n"
      "  --snapshot-out FILE  (single node) boot and age the configured world,\n"
      "                   capture it at the warmup quiesce point and write the\n"
      "                   image to FILE without running the measurement phase\n"
      "  --snapshot-in FILE   (single node) skip aging: restore FILE and run one\n"
      "                   measurement phase from it. The config must match the\n"
      "                   capturing one except --app/--cores/--duration; the\n"
      "                   result is byte-identical to the straight run\n"
      "  --audit          run the mm invariant auditor at run end and print its report\n"
      "  --audit-on-fire  with --inject: also audit at every injection instant\n"
      "  --inject SPEC    arm fault injection; SPEC is comma-separated entries\n"
      "                   point[@N][+P][xC][~F][*M]: @N = Nth call, +P = every P\n"
      "                   calls after, xC = at most C fires, ~F = probability per\n"
      "                   call, *M = magnitude (net_delay multiplier). Points:\n"
      "                   buddy_alloc, direct_reclaim, thp_huge_alloc,\n"
      "                   thp_merge_abort, hugetlb_alloc, net_delay.\n"
      "                   e.g. --inject thp_huge_alloc@100+50x20,net_delay~0.02*16\n",
      argv0);
  std::exit(0);
}

/// A count flag's value: digits only, at least `min`. Anything else exits
/// 1 with a one-line message (atoi would read "abc" as 0).
unsigned parse_count(const char* flag, const char* text, unsigned min) {
  unsigned value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || value < min) {
    std::fprintf(stderr, "%s needs an integer >= %u (got '%s')\n", flag, min, text);
    std::exit(1);
  }
  return value;
}

harness::Manager parse_manager(const std::string& s) {
  if (s == "thp") {
    return harness::Manager::kThp;
  }
  if (s == "hugetlbfs") {
    return harness::Manager::kHugetlbfs;
  }
  if (s == "hpmmap") {
    return harness::Manager::kHpmmap;
  }
  std::fprintf(stderr, "unknown manager '%s'\n", s.c_str());
  std::exit(1);
}

/// Export one traced run: Perfetto-loadable JSON (with telemetry counter
/// tracks when the run sampled), CSV twin, metric report. Templated so
/// serving runs (ServerRunResult) export identically.
template <typename R>
void dump_trace(const R& r, const std::string& path) {
  trace::ExportOptions eopt;
  eopt.clock_hz = r.clock_hz;
  eopt.t0 = r.trace_t0;
  if (!introspect::write_chrome_json_with_counters(path, r.events, r.telemetry, eopt)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    std::exit(1);
  }
  if (!trace::write_csv(path + ".csv", r.events)) {
    std::fprintf(stderr, "failed to write %s.csv\n", path.c_str());
    std::exit(1);
  }
  std::printf("trace: %zu events -> %s (+.csv); %llu overwritten in the ring\n",
              r.events.size(), path.c_str(),
              static_cast<unsigned long long>(r.trace_dropped));
  std::printf("%s", trace::metrics().report().c_str());
}

/// Write the telemetry exports: OpenMetrics text plus a CSV twin. t0 and
/// clock come from the run (trials of one config share both).
void write_metrics(const std::vector<introspect::TimeSeries>& series,
                   const std::string& path, double clock_hz, hpmmap::Cycles t0) {
  if (path.empty()) {
    return;
  }
  trace::ExportOptions eopt;
  eopt.clock_hz = clock_hz;
  eopt.t0 = t0;
  if (!introspect::write_openmetrics(path, series, eopt) ||
      !introspect::write_telemetry_csv(path + ".csv", series, eopt)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    std::exit(1);
  }
  std::uint64_t samples = 0;
  for (const introspect::TimeSeries& s : series) {
    samples += s.points.size();
  }
  std::printf("telemetry: %zu series, %llu samples -> %s (+.csv)\n", series.size(),
              static_cast<unsigned long long>(samples), path.c_str());
}

/// Introspection output for a single (traced/verified) run.
template <typename R>
void report_introspection(const R& r, const std::string& metrics_out,
                          bool procfs) {
  write_metrics(r.telemetry, metrics_out, r.clock_hz, r.trace_t0);
  if (procfs) {
    std::printf("%s", r.procfs_text.c_str());
  }
}

/// Print what a verified run observed: per-point injector counters and
/// the auditor's verdict.
void report_verification(const harness::RunResult& r, bool injected, bool audited) {
  if (injected) {
    harness::Table t({"Injection point", "Calls", "Fired"});
    for (std::size_t i = 0; i < verify::kInjectPointCount; ++i) {
      const auto p = static_cast<verify::InjectPoint>(i);
      t.add_row({std::string(verify::name(p)),
                 harness::with_commas(r.injected[i].calls),
                 harness::with_commas(r.injected[i].fired)});
    }
    t.print();
    std::printf("injected faults: %llu; thp 4K fallbacks: %llu; merges aborted: "
                "%llu; hugetlb exhaustions: %llu\n",
                static_cast<unsigned long long>(r.injected_total()),
                static_cast<unsigned long long>(r.thp_fault_fallbacks),
                static_cast<unsigned long long>(r.thp_merges_aborted),
                static_cast<unsigned long long>(r.hugetlb_pool_exhausted));
  }
  if (audited) {
    std::printf("%s", r.audit_report.c_str());
    if (!r.audit_report.empty() && r.audit_report.back() != '\n') {
      std::printf("\n");
    }
  }
}

/// Wall-clock scope for --perf-summary: prints host-side throughput
/// (simulator events and mm faults per wall second) plus the per-kind mm
/// cycle accounting when it goes out of scope.
class PerfSummary {
 public:
  explicit PerfSummary(bool enabled) : enabled_(enabled) {}
  void add_events(std::uint64_t n) noexcept { events_ += n; }
  void add_faults(const mm::FaultStats& f) noexcept {
    for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
      fault_counts_[k] += f.count[k];
      fault_cycles_[k] += f.total_cycles[k];
    }
  }
  void add_series(const harness::SeriesPoint& p) noexcept {
    for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
      fault_counts_[k] += p.fault_counts[k];
      fault_cycles_[k] += p.fault_cycles[k];
    }
  }
  ~PerfSummary() {
    if (!enabled_) {
      return;
    }
    const auto wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    std::printf("perf: %llu engine events in %.3f s wall = %.3g events/sec "
                "(%u jobs)\n",
                static_cast<unsigned long long>(events_), wall,
                wall > 0 ? static_cast<double>(events_) / wall : 0.0,
                harness::default_jobs());
    std::uint64_t faults = 0;
    for (const std::uint64_t n : fault_counts_) {
      faults += n;
    }
    if (faults > 0) {
      std::printf("perf: %llu mm faults = %.3g faults/sec wall; mm cycles by kind:",
                  static_cast<unsigned long long>(faults),
                  wall > 0 ? static_cast<double>(faults) / wall : 0.0);
      for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
        if (fault_counts_[k] == 0) {
          continue;
        }
        std::printf(" %s %s", std::string(mm::name(static_cast<mm::FaultKind>(k))).c_str(),
                    harness::with_commas(fault_cycles_[k]).c_str());
      }
      std::printf("\n");
    }
    // Traced runs leave the run's mm counters in the metrics registry;
    // surface the per-subsystem accounting next to the throughput line.
    const auto& counters = trace::metrics().counters();
    bool any = false;
    for (const auto& [key, value] : counters) {
      for (const std::string_view prefix :
           {"buddy.", "mm.", "thp.", "khugepaged.", "hugetlb.", "fault.", "hpmmap."}) {
        if (key.rfind(prefix, 0) == 0) {
          std::printf("%s  %s = %s", any ? "" : "perf: mm subsystem counters:\n",
                      key.c_str(), harness::with_commas(value).c_str());
          std::printf("\n");
          any = true;
          break;
        }
      }
    }
  }
  PerfSummary(const PerfSummary&) = delete;
  PerfSummary& operator=(const PerfSummary&) = delete;

 private:
  bool enabled_;
  std::uint64_t events_ = 0;
  std::array<std::uint64_t, mm::kFaultKindCount> fault_counts_{};
  std::array<std::uint64_t, mm::kFaultKindCount> fault_cycles_{};
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

/// Trials with introspection on run per-config through run_batch (same
/// seed derivation as run_trials, same submission-order merge) so the
/// exported telemetry is byte-identical for any --jobs value.
template <typename Config>
int run_introspected_trials(const Config& cfg, std::uint32_t trials, unsigned jobs,
                            const std::string& metrics_out, bool procfs,
                            PerfSummary& perf) {
  std::vector<Config> cfgs;
  for (const std::uint64_t s : harness::trial_seeds(cfg.seed, trials)) {
    cfgs.push_back(cfg);
    cfgs.back().seed = s;
  }
  const std::vector<harness::RunResult> runs = harness::run_batch(cfgs, jobs);
  RunningStats stats;
  for (const harness::RunResult& r : runs) {
    stats.add(r.runtime_seconds);
    perf.add_events(r.events_fired);
    perf.add_faults(r.faults);
  }
  std::printf("runtime: %.2f s  (stdev %.2f)\n", stats.mean(), stats.stdev());
  write_metrics(harness::merged_telemetry(runs), metrics_out, runs.front().clock_hz,
                runs.front().trace_t0);
  if (procfs) {
    // The /proc view of trial 0 (each trial tears its node down; later
    // trials differ only by seed).
    std::printf("%s", runs.front().procfs_text.c_str());
  }
  return 0;
}

/// Parse "--slo 2,10" (milliseconds) into cycle budgets on the R415
/// clock. Empty result on a malformed spec.
std::vector<serving::SloBudget> parse_slo_spec(const std::string& spec, double clock_hz) {
  std::vector<serving::SloBudget> budgets;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string part = spec.substr(pos, comma - pos);
    char* end = nullptr;
    const double ms = std::strtod(part.c_str(), &end);
    if (end == part.c_str() || *end != '\0' || ms <= 0.0) {
      return {};
    }
    serving::SloBudget b;
    b.label = "lat<" + part + "ms";
    b.budget = static_cast<hpmmap::Cycles>(ms * 1e-3 * clock_hz);
    budgets.push_back(std::move(b));
    pos = comma + 1;
  }
  return budgets;
}

/// The serving experiment: per-trial tail/SLO table plus totals. All
/// output derives from run_server_trials' submission-order results, so
/// it is byte-identical for any --jobs value.
int run_server_mode(const harness::ServerRunConfig& cfg, std::uint32_t trials,
                    unsigned jobs, const std::string& trace_out,
                    const std::string& metrics_out, const std::string& attr_out,
                    bool procfs_dump, bool audit, PerfSummary& perf) {
  const bool single = !trace_out.empty() || procfs_dump;
  const std::vector<harness::ServerRunResult> runs =
      single ? std::vector<harness::ServerRunResult>{harness::run_server(cfg)}
             : harness::run_server_trials(cfg, trials, jobs);

  harness::Table t({"Trial", "Completed", "Shed", "p50 us", "p95 us", "p99 us",
                    "p99.9 us", "SLO violations"});
  std::uint64_t total_violations = 0, total_shed = 0, total_completed = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const harness::ServerRunResult& r = runs[i];
    perf.add_events(r.events_fired);
    perf.add_faults(r.faults);
    total_violations += r.slo_total;
    total_shed += r.server.shed_queue + r.server.shed_timeout;
    total_completed += r.server.completed;
    t.add_row({std::to_string(i), harness::with_commas(r.server.completed),
               harness::with_commas(r.server.shed_queue + r.server.shed_timeout),
               std::to_string(static_cast<std::uint64_t>(r.tail.p50_us)),
               std::to_string(static_cast<std::uint64_t>(r.tail.p95_us)),
               std::to_string(static_cast<std::uint64_t>(r.tail.p99_us)),
               std::to_string(static_cast<std::uint64_t>(r.tail.p999_us)),
               harness::with_commas(r.slo_total)});
  }
  t.print();
  for (const harness::SloOutcome& o : runs.front().slo) {
    std::uint64_t v = 0;
    for (const harness::ServerRunResult& r : runs) {
      for (const harness::SloOutcome& ro : r.slo) {
        if (ro.label == o.label) {
          v += ro.violations;
        }
      }
    }
    std::printf("slo %s: %s violations across %zu trial(s)\n", o.label.c_str(),
                harness::with_commas(v).c_str(), runs.size());
  }
  std::printf("total: %s completed, %s shed, %s SLO violations\n",
              harness::with_commas(total_completed).c_str(),
              harness::with_commas(total_shed).c_str(),
              harness::with_commas(total_violations).c_str());
  const harness::ServerRunResult& first = runs.front();
  std::printf("cache: %s hits / %s misses; slab: %s allocs (%s recycled), %s chunks\n",
              harness::with_commas(first.server.cache_hits).c_str(),
              harness::with_commas(first.server.cache_misses).c_str(),
              harness::with_commas(first.server.slab.objects_allocated).c_str(),
              harness::with_commas(first.server.slab.objects_recycled).c_str(),
              harness::with_commas(first.server.slab.chunks_mapped).c_str());
  if (audit) {
    std::printf("%s", first.audit_report.c_str());
    if (!first.audit_report.empty() && first.audit_report.back() != '\n') {
      std::printf("\n");
    }
  }
  report_introspection(first, metrics_out, procfs_dump);
  if (!trace_out.empty()) {
    dump_trace(first, trace_out);
  }
  if (!attr_out.empty()) {
    // Trial 0's decomposition (later trials differ only by seed); the
    // CSV round-trips through mmprof --attr.
    std::printf("%s", profile::render_report(first.attribution, first.clock_hz).c_str());
    const std::string csv = profile::attr_csv(first.attribution.requests);
    if (std::FILE* f = std::fopen(attr_out.c_str(), "w")) {
      std::fputs(csv.c_str(), f);
      std::fclose(f);
      std::printf("attribution: %llu request records -> %s\n",
                  static_cast<unsigned long long>(first.attribution.completed),
                  attr_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", attr_out.c_str());
      return 1;
    }
    if (first.attribution.residual_errors != 0) {
      std::fprintf(stderr, "FAIL: %llu requests with a nonzero decomposition residual\n",
                   static_cast<unsigned long long>(first.attribution.residual_errors));
      return 1;
    }
  }
  std::uint64_t audit_violations = 0;
  for (const harness::ServerRunResult& r : runs) {
    audit_violations += r.audit_violations;
  }
  return audit_violations == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  std::string app = "HPCCG", manager = "hpmmap", profile = "A";
  std::uint32_t cores = 8, nodes = 1, trials = 3;
  std::optional<unsigned> cluster_jobs;
  std::string topology = "flat";
  unsigned jobs = 0;
  double scale = 1.0, duration = 0.1;
  std::uint64_t seed = 42;
  bool trace = false;
  bool perf_summary = false;
  bool spans = false;
  std::string trace_out;
  std::string trace_cat = "all";
  std::string attr_out;
  bool audit = false, audit_on_fire = false;
  std::string inject_spec;
  std::uint64_t sample_interval = 0;
  std::string metrics_out;
  bool procfs_dump = false;
  std::string snapshot_out, snapshot_in;
  std::string experiment = "hpc";
  std::string smp_variant = "today";
  double rate = 2000.0;
  std::string shape = "poisson";
  std::uint32_t workers = 4, queue_depth = 64;
  std::string slo_spec = "2,10";

  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--app")) {
      app = next();
    } else if (!std::strcmp(argv[i], "--experiment")) {
      experiment = next();
    } else if (!std::strcmp(argv[i], "--smp-variant")) {
      smp_variant = next();
    } else if (!std::strcmp(argv[i], "--rate")) {
      rate = std::atof(next());
    } else if (!std::strcmp(argv[i], "--shape")) {
      shape = next();
    } else if (!std::strcmp(argv[i], "--workers")) {
      workers = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--queue-depth")) {
      queue_depth = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--slo")) {
      slo_spec = next();
    } else if (!std::strcmp(argv[i], "--manager")) {
      manager = next();
    } else if (!std::strcmp(argv[i], "--profile")) {
      profile = next();
    } else if (!std::strcmp(argv[i], "--cores")) {
      cores = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--nodes")) {
      nodes = parse_count("--nodes", next(), 1);
    } else if (!std::strcmp(argv[i], "--cluster-jobs")) {
      cluster_jobs = parse_count("--cluster-jobs", next(), 0);
    } else if (!std::strcmp(argv[i], "--topology")) {
      topology = next();
    } else if (!std::strcmp(argv[i], "--trials")) {
      trials = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--scale")) {
      scale = std::atof(next());
    } else if (!std::strcmp(argv[i], "--duration")) {
      duration = std::atof(next());
    } else if (!std::strcmp(argv[i], "--seed")) {
      seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (!std::strcmp(argv[i], "--jobs")) {
      jobs = parse_count("--jobs", next(), 0);
    } else if (!std::strcmp(argv[i], "--perf-summary")) {
      perf_summary = true;
    } else if (!std::strcmp(argv[i], "--trace")) {
      trace = true;
    } else if (!std::strcmp(argv[i], "--trace-out")) {
      trace_out = next();
    } else if (!std::strcmp(argv[i], "--trace-cat")) {
      trace_cat = next();
    } else if (!std::strcmp(argv[i], "--spans")) {
      spans = true;
    } else if (!std::strcmp(argv[i], "--attr-out")) {
      attr_out = next();
    } else if (!std::strcmp(argv[i], "--audit")) {
      audit = true;
    } else if (!std::strcmp(argv[i], "--audit-on-fire")) {
      audit_on_fire = true;
    } else if (!std::strcmp(argv[i], "--inject")) {
      inject_spec = next();
    } else if (!std::strcmp(argv[i], "--sample-interval")) {
      sample_interval = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (!std::strcmp(argv[i], "--metrics-out")) {
      metrics_out = next();
    } else if (!std::strcmp(argv[i], "--procfs-dump")) {
      procfs_dump = true;
    } else if (!std::strcmp(argv[i], "--snapshot-out")) {
      snapshot_out = next();
    } else if (!std::strcmp(argv[i], "--snapshot-in")) {
      snapshot_in = next();
    } else {
      usage(argv[0]);
    }
  }

  using namespace hpmmap;
  harness::set_default_jobs(jobs);
  PerfSummary perf(perf_summary);
  const harness::Manager mgr = parse_manager(manager);

  harness::VerifyConfig verify_cfg;
  verify_cfg.audit = audit;
  verify_cfg.audit_on_injection = audit_on_fire;
  if (!inject_spec.empty()) {
    const auto plan = verify::parse_inject_spec(inject_spec);
    if (!plan) {
      std::fprintf(stderr, "bad --inject spec '%s'\n", inject_spec.c_str());
      return 1;
    }
    verify_cfg.inject = *plan;
  }
  const bool verifying = audit || verify_cfg.inject.any();

  const std::optional<cluster::Topology> topo = cluster::topology_from_name(topology);
  if (!topo) {
    std::fprintf(stderr, "unknown topology '%s' (known: flat, tree, fat-tree)\n",
                 topology.c_str());
    return 1;
  }
  if (!cluster::topology_supports(*topo, nodes)) {
    std::fprintf(stderr, "topology 'tree' needs a power-of-two node count (got %u)\n",
                 nodes);
    return 1;
  }

  harness::IntrospectConfig introspect_cfg;
  if (!metrics_out.empty() && sample_interval == 0) {
    sample_interval = 50'000'000; // ~23 ms of virtual time on the R415
  }
  introspect_cfg.sample_interval = sample_interval;
  introspect_cfg.procfs_dump = procfs_dump;
  const bool introspecting = introspect_cfg.sampling() || procfs_dump;

  harness::TraceConfig trace_cfg;
  if (!trace_out.empty()) {
    const auto mask = trace::parse_categories(trace_cat);
    if (!mask) {
      std::fprintf(stderr, "unknown trace category in '%s'\n", trace_cat.c_str());
      return 1;
    }
    trace_cfg.categories = *mask;
  } else if (trace) {
    trace_cfg.categories =
        experiment == "server" ? static_cast<std::uint32_t>(trace::Category::kServer)
        : experiment == "smp"  ? (static_cast<std::uint32_t>(trace::Category::kLock) |
                                  static_cast<std::uint32_t>(trace::Category::kFault))
                               : static_cast<std::uint32_t>(trace::Category::kFault);
  }
  trace_cfg.spans = spans;
  if (spans && !trace_cfg.on()) {
    std::fprintf(stderr, "--spans needs tracing on (--trace or --trace-out)\n");
    return 1;
  }
  if (!attr_out.empty() && experiment != "server") {
    std::fprintf(stderr, "--attr-out applies to --experiment server only\n");
    return 1;
  }

  if ((!snapshot_out.empty() || !snapshot_in.empty()) &&
      (experiment != "hpc" || nodes > 1)) {
    std::fprintf(stderr, "--snapshot-out/--snapshot-in support single-node hpc runs only\n");
    return 1;
  }
  if (!snapshot_out.empty() && !snapshot_in.empty()) {
    std::fprintf(stderr, "--snapshot-out and --snapshot-in are mutually exclusive\n");
    return 1;
  }

  if (experiment == "server") {
    harness::ServerRunConfig cfg;
    cfg.manager = mgr;
    cfg.commodity = profile == "A"   ? workloads::profile_a(workers)
                    : profile == "B" ? workloads::profile_b(workers)
                                     : workloads::no_competition();
    cfg.service.workers = workers;
    cfg.service.queue_depth = queue_depth;
    cfg.arrival.mean_rps = rate;
    if (!serving::parse_shape(shape, cfg.arrival.shape)) {
      std::fprintf(stderr, "unknown arrival shape '%s' (poisson|bursty|diurnal)\n",
                   shape.c_str());
      return 1;
    }
    cfg.service.budgets = parse_slo_spec(slo_spec, hw::dell_r415().clock_hz);
    if (cfg.service.budgets.empty()) {
      std::fprintf(stderr, "bad --slo spec '%s' (comma-separated milliseconds)\n",
                   slo_spec.c_str());
      return 1;
    }
    cfg.seed = seed;
    cfg.trace = trace_cfg;
    cfg.duration_scale = duration;
    cfg.verify = verify_cfg;
    cfg.introspect = introspect_cfg;
    cfg.attribution = !attr_out.empty();
    std::printf("server: %s @ %.0f rps, %u workers, %s, profile %s, %u trials\n",
                shape.c_str(), rate, workers, name(mgr).data(),
                cfg.commodity.name.c_str(), trials);
    return run_server_mode(cfg, trials, jobs, trace_out, metrics_out, attr_out,
                           procfs_dump, audit, perf);
  }
  if (experiment == "smp") {
    harness::SmpRunConfig scfg;
    if (smp_variant == "1999") {
      scfg.variant = harness::SmpVariant::kLinux1999;
    } else if (smp_variant == "today") {
      scfg.variant = harness::SmpVariant::kLinuxToday;
    } else if (smp_variant == "hpmmap") {
      scfg.variant = harness::SmpVariant::kHpmmap;
    } else {
      std::fprintf(stderr, "unknown --smp-variant '%s' (1999|today|hpmmap)\n",
                   smp_variant.c_str());
      return 1;
    }
    scfg.cores = cores;
    scfg.seed = seed;
    scfg.trace = trace_cfg;
    scfg.verify = verify_cfg;
    std::printf("smp storm: %s, %u cores\n", name(scfg.variant).data(), cores);
    const harness::SmpRunResult r = harness::run_smp(scfg);
    perf.add_events(r.events_fired);
    perf.add_faults(r.faults);
    std::printf("pages: %s in %.4f s virtual = %.3g faults/sec\n",
                harness::with_commas(r.pages_touched).c_str(), r.seconds, r.faults_per_sec);
    std::printf("lock wait: mmap_sem %s, pt %s, zone %s, ipi %s cycles\n",
                harness::with_commas(r.smp.mmap_sem_wait).c_str(),
                harness::with_commas(r.smp.pt_lock_wait).c_str(),
                harness::with_commas(r.smp.zone_lock_wait).c_str(),
                harness::with_commas(r.smp.ipi_stall).c_str());
    if (!trace_out.empty()) {
      trace::ExportOptions eopt;
      eopt.clock_hz = r.clock_hz;
      eopt.t0 = r.trace_t0;
      if (!trace::write_chrome_json(trace_out, r.events, eopt) ||
          !trace::write_csv(trace_out + ".csv", r.events)) {
        std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("trace: %zu events -> %s (+.csv); %llu overwritten in the ring\n",
                  r.events.size(), trace_out.c_str(),
                  static_cast<unsigned long long>(r.trace_dropped));
      std::printf("%s", trace::metrics().report().c_str());
    }
    return r.audit_violations == 0 ? 0 : 1;
  }
  if (experiment != "hpc") {
    std::fprintf(stderr, "unknown experiment '%s' (hpc|server|smp)\n", experiment.c_str());
    return 1;
  }
  // Validate the app name up front: a typo should print the known list,
  // not surface as an exception out of a worker thread.
  if (!workloads::try_profile_by_name(app, hw::dell_r415().clock_hz)) {
    std::fprintf(stderr, "unknown app '%s' (known: %s)\n", app.c_str(),
                 std::string(workloads::known_profile_names()).c_str());
    return 1;
  }

  if (nodes > 1 || cluster_jobs) {
    harness::ScalingRunConfig cfg;
    cfg.app = app;
    cfg.manager = mgr;
    cfg.commodity = profile == "D"      ? workloads::profile_d()
                    : profile == "none" ? workloads::no_competition()
                                        : workloads::profile_c();
    cfg.nodes = nodes;
    cfg.seed = seed;
    cfg.trace = trace_cfg;
    cfg.footprint_scale = scale;
    cfg.duration_scale = duration;
    cfg.verify = verify_cfg;
    cfg.introspect = introspect_cfg;
    const harness::ClusterRunConfig ccfg{cfg, *topo, cluster_jobs.value_or(1)};
    std::printf("%s on %u nodes (%u ranks), %s, profile %s, %u trials\n", app.c_str(), nodes,
                nodes * cfg.ranks_per_node, name(mgr).data(), cfg.commodity.name.c_str(),
                trials);
    if (cluster_jobs) {
      std::printf("pdes: per-node engines, %s topology, %u worker(s)\n",
                  std::string(cluster::name(*topo)).c_str(), *cluster_jobs);
    }
    if (!trace_out.empty() || verifying || (cluster_jobs && introspecting)) {
      const harness::RunResult r = harness::run_cluster(ccfg);
      perf.add_events(r.events_fired);
      perf.add_faults(r.faults);
      std::printf("runtime: %.2f s\n", r.runtime_seconds);
      report_verification(r, verify_cfg.inject.any(), audit);
      report_introspection(r, metrics_out, procfs_dump);
      if (!trace_out.empty()) {
        dump_trace(r, trace_out);
      }
      return r.audit_violations == 0 ? 0 : 1;
    }
    if (introspecting) {
      return run_introspected_trials(cfg, trials, jobs, metrics_out, procfs_dump, perf);
    }
    const harness::SeriesPoint p = cluster_jobs ? harness::run_cluster_trials(ccfg, trials)
                                                : harness::run_trials(cfg, trials);
    perf.add_events(p.events);
    perf.add_series(p);
    std::printf("runtime: %.2f s  (stdev %.2f)\n", p.mean_seconds, p.stdev_seconds);
    return 0;
  }

  harness::SingleNodeRunConfig cfg;
  cfg.app = app;
  cfg.manager = mgr;
  cfg.commodity = profile == "A"      ? workloads::profile_a(cores)
                  : profile == "B"    ? workloads::profile_b(cores)
                                      : workloads::no_competition();
  cfg.app_cores = cores;
  cfg.seed = seed;
  cfg.trace = trace_cfg;
  cfg.footprint_scale = scale;
  cfg.duration_scale = duration;
  cfg.verify = verify_cfg;
  cfg.introspect = introspect_cfg;
  std::printf("%s on %u cores, %s, profile %s, %u trials\n", app.c_str(), cores,
              name(mgr).data(), cfg.commodity.name.c_str(), trials);

  if (!snapshot_out.empty()) {
    const snapshot::WorldImage image = harness::capture_single_node(cfg);
    snapshot::save(image, snapshot_out);
    std::printf("snapshot: aged world (manager %s, profile %s, seed %llu) -> %s\n",
                name(mgr).data(), cfg.commodity.name.c_str(),
                static_cast<unsigned long long>(seed), snapshot_out.c_str());
    return 0;
  }
  if (cfg.trace.on() || verifying || !snapshot_in.empty()) {
    const harness::RunResult r =
        snapshot_in.empty() ? harness::run_single_node(cfg)
                            : harness::run_single_node(cfg, snapshot::load(snapshot_in));
    perf.add_events(r.events_fired);
    perf.add_faults(r.faults);
    std::printf("runtime: %.2f s\n", r.runtime_seconds);
    if (cfg.trace.on()) {
      harness::Table t({"Kind", "Count", "Avg cycles", "Stdev cycles"});
      for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
        const auto kind = static_cast<mm::FaultKind>(k);
        const auto& row = r.by_kind(kind);
        t.add_row({std::string(mm::name(kind)), harness::with_commas(row.total_faults),
                   harness::with_commas(static_cast<std::uint64_t>(row.avg_cycles)),
                   harness::with_commas(static_cast<std::uint64_t>(row.stdev_cycles))});
      }
      t.print();
      std::printf("khugepaged merges: %llu\n",
                  static_cast<unsigned long long>(r.thp_merges));
    }
    report_verification(r, verify_cfg.inject.any(), audit);
    report_introspection(r, metrics_out, procfs_dump);
    if (!trace_out.empty()) {
      dump_trace(r, trace_out);
    }
    return r.audit_violations == 0 ? 0 : 1;
  }
  if (introspecting || !metrics_out.empty()) {
    return run_introspected_trials(cfg, trials, jobs, metrics_out, procfs_dump, perf);
  }
  const harness::SeriesPoint p = harness::run_trials(cfg, trials);
  perf.add_events(p.events);
  perf.add_series(p);
  std::printf("runtime: %.2f s  (stdev %.2f)\n", p.mean_seconds, p.stdev_seconds);
  return 0;
}
