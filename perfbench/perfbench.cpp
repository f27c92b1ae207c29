// End-to-end benchmark of the HPMMAP simulator: runs one paper-anchored
// workload, checks every cell's simulated output, and times each layer
// from outside by bracketing the calls it makes into harness, snapshot
// and cluster. See README.md for the workloads, the metric -> layer ->
// workload table, and how to run the traced pass.
//
// Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--out-dir DIR] [--expected FILE] [--commit SHA]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). A flat copy with an environment stamp lands in --out-dir
// as perfbench_<workload>[_traced].json, readable by bench_diff.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.hpp"
#include "harness/batch.hpp"
#include "harness/cluster.hpp"
#include "harness/experiment.hpp"
#include "hw/machine.hpp"
#include "introspect/bench_diff.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "workloads/profiles.hpp"

namespace {

using namespace hpmmap;
using harness::Manager;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Peak resident memory of this process since it started or since the
/// last reset_peak_rss().
double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Returns freed heap memory to the kernel, then restarts the peak at the
/// current resident size (Linux clear_refs 5), so the next peak is one
/// cell's alone. Where the reset is refused, peaks keep accumulating.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Host seconds, and the same seconds scaled to a reference host speed.
/// On a shared host the speed of a core drifts with what other tenants
/// run: the same pass of the same seed took from 1.2 s to 2.5 s within
/// one minute. The probe is a fixed piece of work that uses none of the
/// simulator's code and slows as much as the simulator does: four
/// independent multiply-xorshift chains through an 8 MiB table (past the
/// core's own caches, so it shares the last-level cache with other
/// tenants), with a data-dependent branch each step. Regressing the log
/// of smp_storm pass times on the log of the probe times around them gave
/// a slope of 1.0 on a shared 4-vCPU VM; a 256 KiB table gave 0.6, and a
/// latency-bound random walk less. tick() runs it at most every
/// kInterval seconds, adds the host
/// time since the previous probe to host_s, and adds the same time
/// scaled by kReference / probe seconds (the mean of the probes at its
/// two ends) to ref_s: what it would have taken on a host where the
/// probe takes kReference seconds. Time spent in the probe is in
/// neither.
class HostClock {
 public:
  static constexpr double kInterval = 0.25;
  static constexpr double kReference = 0.03;

  HostClock() : table_(kEntries) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t& e : table_) {
      x = perfbench::derive_seed(x, 0, 0);
      e = x;
    }
    last_probe_ = probe();
    mark_ = Clock::now();
  }

  /// Runs the probe when kInterval has passed since the last one, or
  /// always when `force`.
  void tick(bool force) {
    const double elapsed = seconds_since(mark_);
    if (!force && elapsed < kInterval) {
      return;
    }
    const double p = probe();
    host_s_ += elapsed;
    ref_s_ += elapsed * kReference / (0.5 * (p + last_probe_));
    last_probe_ = p;
    probes_.push_back(p);
    mark_ = Clock::now();
  }

  [[nodiscard]] double host_s() const noexcept { return host_s_; }
  [[nodiscard]] double ref_s() const noexcept { return ref_s_; }
  /// Every probe's host seconds, in order.
  [[nodiscard]] const std::vector<double>& probes() const noexcept { return probes_; }

 private:
  static constexpr std::uint64_t kEntries = std::uint64_t{1} << 20;
  static constexpr std::uint32_t kSteps = std::uint32_t{1} << 18;

  double probe() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t h[4] = {1, 2, 3, 4};
    std::uint64_t acc = 0;
    for (std::uint32_t step = 0; step < kSteps; ++step) {
      for (std::uint64_t& x : h) {
        x = (x ^ table_[x & (kEntries - 1)]) * 0xff51afd7ed558ccdull;
        x ^= x >> 29;
        if ((x >> 40) & 1) {
          acc += x >> 7;
        } else {
          acc ^= x;
        }
      }
    }
    sink_ = sink_ + acc + h[0] + h[1] + h[2] + h[3];
    return seconds_since(t0);
  }

  std::vector<std::uint64_t> table_;
  volatile std::uint64_t sink_ = 0;
  double last_probe_ = 0.0;
  Clock::time_point mark_;
  double host_s_ = 0.0;
  double ref_s_ = 0.0;
  std::vector<double> probes_;
};

// --- options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string expected_path;
  std::string commit = "unknown";
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      return std::nullopt;
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else if (a == "--expected") {
      o.expected_path = v;
    } else if (a == "--commit") {
      o.commit = v;
    } else {
      return std::nullopt;
    }
  }
  if (o.workload.empty() || !(o.seconds > 0.0)) {
    return std::nullopt;
  }
  return o;
}

// --- host spans ---------------------------------------------------------------

/// Benchmark-level spans around the calls into each layer, kept in memory
/// and written out once at the end (Chrome trace-event JSON). Span ids
/// are 1-based; 0 is "no span" (recording off, or a root's parent).
class SpanLog {
 public:
  void set_enabled(bool on) noexcept { on_ = on; }

  std::size_t open(std::string name, std::size_t parent) {
    if (!on_) {
      return 0;
    }
    spans_.push_back(Span{std::move(name), parent, seconds_since(t0_), 0.0});
    return spans_.size();
  }
  void close(std::size_t id) {
    if (id != 0) {
      spans_[id - 1].end = seconds_since(t0_);
    }
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %zu}}%s\n",
                    s.name.c_str(), s.start * 1e6, (s.end - s.start) * 1e6, i + 1, s.parent,
                    i + 1 == spans_.size() ? "" : ",");
      out << buf;
    }
    out << "]}\n";
  }

 private:
  struct Span {
    std::string name;
    std::size_t parent = 0;
    double start = 0.0;
    double end = 0.0;
  };
  bool on_ = false;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

struct Context {
  Options opt;
  HostClock clock;
  SpanLog spans;
  std::size_t pass_span = 0;
  std::string snap_path;
};

/// Times one call from outside and brackets it in a span. The host-speed
/// probe may run first, outside the timed interval.
class Timed {
 public:
  Timed(Context& ctx, std::string name, std::size_t parent, double& sink)
      : log_(ctx.spans), sink_(sink) {
    ctx.clock.tick(false);
    id_ = log_.open(std::move(name), parent);
    start_ = Clock::now();
  }
  ~Timed() {
    sink_ += seconds_since(start_);
    log_.close(id_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanLog& log_;
  double& sink_;
  std::size_t id_ = 0;
  Clock::time_point start_;
};

// --- passes -------------------------------------------------------------------

/// What a pass switches on besides the simulation itself.
enum class PassKind { kPlain, kTraced, kAudited, kAttributed };

struct PassSpec {
  PassKind kind = PassKind::kPlain;
  /// Worker threads for run_cluster (fig8_cluster only).
  unsigned cluster_jobs = 1;
  /// Stop after this many cells, skipping set-up and the figure-level
  /// checks (fig8_cluster's speedup probe); 0 = the whole grid.
  std::size_t cells = 0;
};

/// Host times, simulated outcome and per-layer counts of one pass over a
/// workload's whole grid.
struct PassResult {
  /// Host seconds of the pass, without the host-speed probe.
  double wall_s = 0.0;
  /// The same at the reference host speed (HostClock).
  double ref_wall_s = 0.0;
  /// Per cell: peak resident memory of the process from the end of the
  /// previous cell (or the pass's start) to the end of this one, so a
  /// world's set-up counts towards its first cell.
  std::vector<double> cell_rss_mib;
  double capture_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double measure_s = 0.0;
  /// Bytes of the saved snapshot images, summed.
  double image_bytes = 0.0;
  /// Simulated work: app seconds (fig7/fig8), completed requests
  /// (serve_slo) or faults (smp_storm).
  double sim_work = 0.0;
  double paper_gap = NAN;
  std::vector<std::string> labels;
  std::vector<std::uint64_t> digests;
  /// Per cell: failed a check inside the pass (audit, attribution
  /// residuals, paper shape). Digest checks are applied across passes.
  std::vector<bool> failed;
  std::map<std::string, double> layer;

  [[nodiscard]] double setup_s() const noexcept { return capture_s + save_s + load_s; }
  /// A per-layer count; 0 when the workload never touched that layer.
  [[nodiscard]] double count(const std::string& key) const {
    const auto it = layer.find(key);
    return it == layer.end() ? 0.0 : it->second;
  }

  void add_cell(std::string label, std::uint64_t digest) {
    labels.push_back(std::move(label));
    digests.push_back(digest);
    failed.push_back(false);
    cell_rss_mib.push_back(peak_rss_mib());
    reset_peak_rss();
  }
};

/// Fewest passes an untraced run makes, however long a pass takes.
constexpr std::size_t kMinPasses = 2;

harness::TraceConfig trace_config(PassKind kind) {
  harness::TraceConfig t;
  if (kind == PassKind::kTraced) {
    t.categories = trace::kAllCategories;
    // A small ring keeps host memory modest; emission cost is paid in
    // full either way and overwritten events are counted as dropped.
    t.capacity = std::size_t{1} << 16;
    t.spans = true;
  }
  return t;
}

harness::VerifyConfig verify_config(PassKind kind) {
  harness::VerifyConfig v;
  v.audit = kind == PassKind::kAudited;
  return v;
}

void add_counters(std::map<std::string, double>& layer,
                  const std::map<std::string, std::uint64_t>& after,
                  const std::map<std::string, std::uint64_t>& before) {
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    layer[k] += static_cast<double>(v - (it == before.end() ? 0 : it->second));
  }
}

void add_faults(PassResult& p, const mm::FaultStats& f, bool hpmmap_backed) {
  static constexpr const char* kKinds[] = {"Small", "Large", "Merge"};
  for (std::size_t k = 0; k < 3; ++k) {
    const auto n = static_cast<double>(f.count[k]);
    if (hpmmap_backed) {
      p.layer["core.faults"] += n;
    } else {
      p.layer[std::string("linux_mm.faults.") + kKinds[k]] += n;
      p.layer[std::string("linux_mm.fault_cycles.") + kKinds[k]] +=
          static_cast<double>(f.total_cycles[k]);
      p.layer["linux_mm.faults"] += n;
    }
  }
}

void fold_faults(perfbench::Digest& d, const mm::FaultStats& f) {
  for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
    d.add(f.count[k]).add(f.total_cycles[k]);
  }
}

std::uint64_t digest_of(const harness::RunResult& r) {
  perfbench::Digest d;
  d.add(r.runtime_seconds).add(r.events_fired).add(r.thp_merges).add(r.hpmmap_spurious_faults);
  d.add(r.thp_fault_fallbacks).add(r.thp_merges_aborted).add(r.hugetlb_pool_exhausted);
  fold_faults(d, r.faults);
  return d.value();
}

std::uint64_t digest_of(const harness::ServerRunResult& r) {
  perfbench::Digest d;
  d.add(r.runtime_seconds).add(r.events_fired).add(r.slo_total);
  const workloads::ServerStats& s = r.server;
  d.add(s.offered).add(s.admitted).add(s.shed_queue).add(s.shed_timeout).add(s.completed);
  d.add(s.cache_hits).add(s.cache_misses).add(s.slab.objects_allocated);
  d.add(s.slab.objects_recycled).add(s.slab.chunks_mapped).add(s.slab.large_allocs);
  d.add(s.slab.bytes_mapped).add(s.slab.alloc_failures);
  const harness::ServerTailSummary& t = r.tail;
  d.add(t.p50_us).add(t.p95_us).add(t.p99_us).add(t.p999_us).add(t.exact_p50_us);
  d.add(t.exact_p99_us).add(t.exact_p999_us).add(t.mean_us).add(t.max_us).add(t.samples);
  for (const harness::SloOutcome& o : r.slo) {
    d.add(o.violations);
  }
  fold_faults(d, r.faults);
  return d.value();
}

std::uint64_t digest_of(const harness::SmpRunResult& r) {
  perfbench::Digest d;
  d.add(r.pages_touched).add(r.seconds).add(r.faults_per_sec).add(r.events_fired);
  const mm::SmpStats& s = r.smp;
  d.add(s.mmap_sem_wait).add(s.pt_lock_wait).add(s.zone_lock_wait).add(s.ipi_stall);
  d.add(s.pcp_hits).add(s.pcp_misses).add(s.pcp_refilled_frames).add(s.pcp_drains);
  d.add(s.shootdown_ipis).add(s.shootdown_pages);
  fold_faults(d, r.faults);
  return d.value();
}

/// Counts every workload reports from its results (trace volume, audits).
template <typename R>
void add_common(PassResult& p, const R& r) {
  p.layer["sim.events"] += static_cast<double>(r.events_fired);
  p.layer["trace.events"] += static_cast<double>(r.events.size());
  p.layer["trace.dropped"] += static_cast<double>(r.trace_dropped);
  p.layer["verify.audit_checks"] += static_cast<double>(r.audit_checks);
  p.layer["verify.audit_violations"] += static_cast<double>(r.audit_violations);
}

/// Mark cells [first, first + n) failed when `ok` is false.
void require(PassResult& p, bool ok, std::size_t first, std::size_t n, const std::string& what) {
  if (ok) {
    return;
  }
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  for (std::size_t i = first; i < first + n && i < p.failed.size(); ++i) {
    p.failed[i] = true;
  }
}

/// snapshot::save then snapshot::load, timed separately; the resumed
/// cells run from the loaded copy, so the image format is on the path.
snapshot::WorldImage round_trip(Context& ctx, PassResult& p, const snapshot::WorldImage& image,
                                std::size_t parent) {
  {
    Timed t(ctx, "save", parent, p.save_s);
    snapshot::save(image, ctx.snap_path);
  }
  std::error_code ec;
  p.image_bytes += static_cast<double>(std::filesystem::file_size(ctx.snap_path, ec));
  Timed t(ctx, "load", parent, p.load_s);
  return snapshot::load(ctx.snap_path);
}

const char* short_name(Manager m) {
  switch (m) {
    case Manager::kThp: return "THP";
    case Manager::kHugetlbfs: return "HugeTLBfs";
    case Manager::kHpmmap: return "HPMMAP";
  }
  return "?";
}

// --- fig7_node ----------------------------------------------------------------

// Fig 7 quick grid, one trial seed. Paper profile averages (THP/HPMMAP,
// HugeTLBfs/HPMMAP): A 1.15/1.09, B 1.16/1.36 (EXPERIMENTS.md E5).
constexpr const char* kFig7Apps[] = {"HPCCG", "CoMD", "miniMD", "miniFE"};
constexpr std::uint32_t kFig7Cores[] = {1, 8};
constexpr Manager kFig7Managers[] = {Manager::kHpmmap, Manager::kThp, Manager::kHugetlbfs};
constexpr double kFig7Paper[2][2] = {{1.15, 1.09}, {1.16, 1.36}};
constexpr double kFig7DurationScale = 0.01;

PassResult fig7_pass(Context& ctx, const PassSpec& spec) {
  PassResult p;
  const std::uint32_t mask = trace_config(spec.kind).categories;
  // runtime[prof][cores][mgr][app]
  double runtime[2][2][3][4] = {};
  for (int prof = 0; prof < 2; ++prof) {
    for (std::size_t ci = 0; ci < 2; ++ci) {
      const std::uint32_t cores = kFig7Cores[ci];
      for (std::size_t mi = 0; mi < 3; ++mi) {
        const Manager mgr = kFig7Managers[mi];
        harness::SingleNodeRunConfig cfg;
        cfg.manager = mgr;
        cfg.commodity = prof == 0 ? workloads::profile_a(cores) : workloads::profile_b(cores);
        cfg.app_cores = cores;
        // Shared by every cell of a profile: common random numbers across
        // managers and core counts, as in bench/fig7_single_node.
        cfg.seed = perfbench::derive_seed(ctx.opt.seed, 7, static_cast<std::uint64_t>(prof));
        cfg.footprint_scale = 1.0;
        cfg.duration_scale = kFig7DurationScale;
        cfg.trace = trace_config(spec.kind);
        cfg.verify = verify_config(spec.kind);

        const std::string world = std::string(prof == 0 ? "A" : "B") + ".c" +
                                  std::to_string(cores) + "." + short_name(mgr);
        const std::size_t world_span = ctx.spans.open("world " + world, ctx.pass_span);
        snapshot::WorldImage image;
        {
          Timed t(ctx, "capture", world_span, p.capture_s);
          image = harness::capture_single_node(cfg);
        }
        // The aging phase's counters as captured; the resumed runs start
        // from these. trace::metrics() would also hold the capture's teardown.
        const std::map<std::string, std::uint64_t> aging(image.metrics.counters.begin(),
                                                         image.metrics.counters.end());
        add_counters(p.layer, aging, {});
        const snapshot::WorldImage loaded = round_trip(ctx, p, image, world_span);
        image = {};

        for (std::size_t ai = 0; ai < 4; ++ai) {
          cfg.app = kFig7Apps[ai];
          const std::string label = std::string(kFig7Apps[ai]) + "." + world;
          const std::size_t cell_span = ctx.spans.open("cell " + label, world_span);
          harness::RunResult r;
          {
            Timed t(ctx, "measure", cell_span, p.measure_s);
            r = harness::run_single_node(cfg, loaded);
          }
          ctx.spans.close(cell_span);
          if (mask != 0) {
            add_counters(p.layer, trace::metrics().counters(), aging);
          }
          runtime[prof][ci][mi][ai] = r.runtime_seconds;
          p.sim_work += r.runtime_seconds;
          add_common(p, r);
          add_faults(p, r.faults, mgr == Manager::kHpmmap);
          p.layer["core.spurious_faults"] += static_cast<double>(r.hpmmap_spurious_faults);
          p.layer["linux_mm.thp_fallbacks"] += static_cast<double>(r.thp_fault_fallbacks);
          p.add_cell(label, digest_of(r));
          require(p, r.audit_violations == 0, p.failed.size() - 1, 1,
                  label + ": MmAuditor violations\n" + r.audit_report);
        }
        ctx.spans.close(world_span);
      }
    }
  }

  std::vector<double> sim;
  std::vector<double> paper;
  for (int prof = 0; prof < 2; ++prof) {
    for (std::size_t linux_mi = 1; linux_mi < 3; ++linux_mi) {
      double sum = 0.0;
      for (std::size_t ci = 0; ci < 2; ++ci) {
        for (std::size_t ai = 0; ai < 4; ++ai) {
          sum += runtime[prof][ci][linux_mi][ai] / runtime[prof][ci][0][ai];
        }
      }
      const double avg = sum / 8.0;
      std::printf("  profile %c %s/HPMMAP %.4f (paper %.2f)\n", prof == 0 ? 'A' : 'B',
                  short_name(kFig7Managers[linux_mi]), avg, kFig7Paper[prof][linux_mi - 1]);
      sim.push_back(avg);
      paper.push_back(kFig7Paper[prof][linux_mi - 1]);
      require(p, avg > 1.0, static_cast<std::size_t>(prof) * 24, 24,
              std::string("fig7 profile ") + (prof == 0 ? "A" : "B") + " " +
                  short_name(kFig7Managers[linux_mi]) + "/HPMMAP average <= 1");
    }
  }
  p.paper_gap = perfbench::paper_gap(sim, paper);
  return p;
}

// --- fig8_cluster -------------------------------------------------------------

// Fig 8's 32-rank column (8 nodes x 4 ranks), THP/HPMMAP per app and
// profile; paper values from EXPERIMENTS.md E6.
constexpr const char* kFig8Apps[] = {"HPCCG", "miniFE", "LAMMPS"};
constexpr double kFig8Paper[3][2] = {{1.12, 1.11}, {1.09, 1.06}, {1.02, 1.04}};
constexpr double kFig8DurationScale = 0.02;
/// run_cluster workers: half of a 4-CPU host. Every lookahead window
/// waits for its slowest worker, so with a worker on every CPU any other
/// process's time slice stalls the whole cluster and the timing measures
/// the scheduler. cluster.parallel_speedup reads null on hosts with
/// fewer CPUs than this.
constexpr unsigned kClusterJobs = 2;
/// Cells (one app/profile pair) timed at 1 and kClusterJobs workers for
/// cluster.parallel_speedup in the traced run.
constexpr std::size_t kProbeCells = 2;

harness::ClusterRunConfig fig8_config(const Context& ctx, const PassSpec& spec, std::size_t ai,
                                      int prof, Manager mgr) {
  harness::ClusterRunConfig cfg;
  cfg.scaling.app = kFig8Apps[ai];
  cfg.scaling.manager = mgr;
  cfg.scaling.commodity = prof == 0 ? workloads::profile_c() : workloads::profile_d();
  cfg.scaling.nodes = 8;
  cfg.scaling.ranks_per_node = 4;
  // Shared by the apps and managers of a profile (common random numbers).
  cfg.scaling.seed = perfbench::derive_seed(ctx.opt.seed, 8, static_cast<std::uint64_t>(prof));
  cfg.scaling.footprint_scale = 1.0;
  cfg.scaling.duration_scale = kFig8DurationScale;
  cfg.scaling.trace = trace_config(spec.kind);
  cfg.scaling.verify = verify_config(spec.kind);
  cfg.cluster_jobs = spec.cluster_jobs;
  return cfg;
}

PassResult fig8_pass(Context& ctx, const PassSpec& spec) {
  PassResult p;
  const bool full = spec.cells == 0;
  // run_cluster boots and ages its world internally and exposes no
  // capture, so set-up is timed on the equivalent shared-engine world:
  // capture_scaling of each (profile, manager) world, as a cluster sweep
  // would age it once before fanning the apps out.
  for (int prof = 0; full && prof < 2; ++prof) {
    for (const Manager mgr : {Manager::kHpmmap, Manager::kThp}) {
      const harness::ClusterRunConfig cfg = fig8_config(ctx, spec, 0, prof, mgr);
      Timed t(ctx, "capture", ctx.pass_span, p.capture_s);
      static_cast<void>(harness::capture_scaling(cfg.scaling));
    }
  }
  std::vector<double> sim;
  std::vector<double> paper;
  for (std::size_t ai = 0; ai < 3; ++ai) {
    for (int prof = 0; prof < 2; ++prof) {
      if (!full && p.digests.size() >= spec.cells) {
        return p;
      }
      double runtime[2] = {0.0, 0.0};
      const std::size_t first = p.failed.size();
      for (std::size_t mi = 0; mi < 2; ++mi) {
        const Manager mgr = mi == 0 ? Manager::kHpmmap : Manager::kThp;
        const harness::ClusterRunConfig cfg = fig8_config(ctx, spec, ai, prof, mgr);
        const std::string label = std::string(kFig8Apps[ai]) + "." + (prof == 0 ? "C" : "D") +
                                  ".n8." + short_name(mgr);
        const std::size_t cell_span = ctx.spans.open("cell " + label, ctx.pass_span);
        harness::RunResult r;
        {
          Timed t(ctx, "measure", cell_span, p.measure_s);
          r = harness::run_cluster(cfg);
        }
        ctx.spans.close(cell_span);
        runtime[mi] = r.runtime_seconds;
        p.sim_work += r.runtime_seconds;
        add_common(p, r);
        p.layer["cluster.events"] += static_cast<double>(r.events_fired);
        add_faults(p, r.faults, mgr == Manager::kHpmmap);
        p.layer["core.spurious_faults"] += static_cast<double>(r.hpmmap_spurious_faults);
        p.layer["linux_mm.thp_fallbacks"] += static_cast<double>(r.thp_fault_fallbacks);
        p.add_cell(label, digest_of(r));
        require(p, r.audit_violations == 0, p.failed.size() - 1, 1,
                label + ": MmAuditor violations\n" + r.audit_report);
      }
      const double ratio = runtime[1] / runtime[0];
      std::printf("  %s %c THP/HPMMAP %.4f (paper %.2f)\n", kFig8Apps[ai], prof == 0 ? 'C' : 'D',
                  ratio, kFig8Paper[ai][prof]);
      sim.push_back(ratio);
      paper.push_back(kFig8Paper[ai][prof]);
      require(p, ratio > 1.0, first, 2,
              std::string("fig8 ") + kFig8Apps[ai] + (prof == 0 ? " C" : " D") +
                  " THP/HPMMAP <= 1");
    }
  }
  p.paper_gap = perfbench::paper_gap(sim, paper);
  return p;
}

// --- serve_slo ----------------------------------------------------------------

// fig_server_slo's configuration at its full 10 s simulated window, with
// its three trial seeds: one trial's violation counts swing with the
// seed (HugeTLBfs can collapse), three make the per-pass work and the
// HPMMAP-fewest shape hold at any seed.
constexpr Manager kServeManagers[] = {Manager::kThp, Manager::kHugetlbfs, Manager::kHpmmap};
constexpr std::uint32_t kServeTrials = 3;

PassResult serve_pass(Context& ctx, const PassSpec& spec) {
  PassResult p;
  const std::uint32_t mask = trace_config(spec.kind).categories;
  const std::vector<std::uint64_t> seeds =
      harness::trial_seeds(perfbench::derive_seed(ctx.opt.seed, 6, 0), kServeTrials);
  std::uint64_t violations[3] = {0, 0, 0};
  double p99_sum = 0.0;
  double shed = 0.0;
  double offered = 0.0;
  double recycled = 0.0;
  double allocated = 0.0;
  double hits = 0.0;
  double lookups = 0.0;
  for (std::size_t mi = 0; mi < 3; ++mi) {
    for (std::uint32_t trial = 0; trial < kServeTrials; ++trial) {
      harness::ServerRunConfig cfg;
      cfg.manager = kServeManagers[mi];
      // The same schedule replays against every manager (common random
      // numbers), as in fig_server_slo.
      cfg.seed = seeds[trial];
      cfg.arrival.shape = serving::ArrivalShape::kPoisson;
      cfg.arrival.mean_rps = 80'000.0;
      cfg.arrival.duration_seconds = 10.0;
      cfg.commodity = workloads::profile_a(cfg.service.workers);
      const double clock_hz = hw::dell_r415().clock_hz;
      cfg.service.budgets = {
          serving::SloBudget{"lat<0.5ms", static_cast<Cycles>(clock_hz * 0.0005)},
          serving::SloBudget{"lat<2ms", static_cast<Cycles>(clock_hz * 0.002)},
      };
      cfg.trace = trace_config(spec.kind);
      cfg.verify = verify_config(spec.kind);
      cfg.attribution = spec.kind == PassKind::kTraced || spec.kind == PassKind::kAttributed;

      const std::string label =
          std::string("server.A.") + short_name(cfg.manager) + ".t" + std::to_string(trial);
      const std::size_t cell_span = ctx.spans.open("cell " + label, ctx.pass_span);
      snapshot::WorldImage image;
      {
        Timed t(ctx, "capture", cell_span, p.capture_s);
        image = harness::capture_server(cfg);
      }
      const std::map<std::string, std::uint64_t> aging(image.metrics.counters.begin(),
                                                       image.metrics.counters.end());
      add_counters(p.layer, aging, {});
      const snapshot::WorldImage loaded = round_trip(ctx, p, image, cell_span);
      image = {};
      harness::ServerRunResult r;
      {
        Timed t(ctx, "measure", cell_span, p.measure_s);
        r = harness::run_server(cfg, loaded);
      }
      ctx.spans.close(cell_span);
      if (mask != 0) {
        add_counters(p.layer, trace::metrics().counters(), aging);
      }
      const workloads::ServerStats& s = r.server;
      violations[mi] += r.slo_total;
      p.sim_work += static_cast<double>(s.completed);
      add_common(p, r);
      add_faults(p, r.faults, cfg.manager == Manager::kHpmmap);
      p.layer["serving.completed"] += static_cast<double>(s.completed);
      p.layer["serving.slo_violations"] += static_cast<double>(r.slo_total);
      p.layer["profile.attr_residual_errors"] +=
          static_cast<double>(r.attribution.residual_errors);
      p99_sum += r.tail.p99_us;
      shed += static_cast<double>(s.shed_queue + s.shed_timeout);
      offered += static_cast<double>(s.offered);
      recycled += static_cast<double>(s.slab.objects_recycled);
      allocated += static_cast<double>(s.slab.objects_allocated);
      hits += static_cast<double>(s.cache_hits);
      lookups += static_cast<double>(s.cache_hits + s.cache_misses);
      p.add_cell(label, digest_of(r));
      const std::size_t cell = p.failed.size() - 1;
      require(p, r.audit_violations == 0, cell, 1,
              label + ": MmAuditor violations\n" + r.audit_report);
      require(p, r.attribution.residual_errors == 0, cell, 1, label + ": attribution residuals");
    }
  }
  const double cells = static_cast<double>(p.digests.size());
  p.layer["serving.p99_us"] = p99_sum / cells;
  p.layer["serving.shed_ratio"] = offered > 0 ? shed / offered : 0.0;
  p.layer["serving.slab_recycle_ratio"] = allocated > 0 ? recycled / allocated : 0.0;
  p.layer["serving.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
  std::printf("  SLO violations over %u trials: THP %llu, HugeTLBfs %llu, HPMMAP %llu\n",
              kServeTrials, static_cast<unsigned long long>(violations[0]),
              static_cast<unsigned long long>(violations[1]),
              static_cast<unsigned long long>(violations[2]));
  require(p, violations[2] < violations[0] && violations[2] < violations[1], 0, p.failed.size(),
          "serve_slo: HPMMAP does not have strictly the fewest SLO violations");
  return p;
}

// --- smp_storm ----------------------------------------------------------------

constexpr harness::SmpVariant kSmpVariants[] = {
    harness::SmpVariant::kLinux1999, harness::SmpVariant::kLinuxToday,
    harness::SmpVariant::kHpmmap};
constexpr std::uint32_t kSmpCores = 256;
constexpr std::uint64_t kSmpRounds = 10;

PassResult smp_pass(Context& ctx, const PassSpec& spec) {
  PassResult p;
  const std::uint32_t mask = trace_config(spec.kind).categories;
  double faults_per_sec[3] = {0.0, 0.0, 0.0};
  mm::SmpStats total{};
  for (std::size_t vi = 0; vi < 3; ++vi) {
    harness::SmpRunConfig cfg;
    cfg.variant = kSmpVariants[vi];
    cfg.cores = kSmpCores;
    cfg.rounds = kSmpRounds;
    cfg.slab_bytes = 2 * MiB;
    cfg.seed = perfbench::derive_seed(ctx.opt.seed, 9, 0);
    cfg.trace = trace_config(spec.kind);
    cfg.verify = verify_config(spec.kind);

    // run_smp exposes no capture; a zero-round storm boots the same
    // pristine 256-core world, spawns the workers and tears down, so it
    // times set-up alone.
    harness::SmpRunConfig boot = cfg;
    boot.rounds = 0;
    boot.trace = {};
    boot.verify = {};
    {
      Timed t(ctx, "capture", ctx.pass_span, p.capture_s);
      static_cast<void>(harness::run_smp(boot));
    }

    const std::string label = "smp.c256." + std::string(harness::name(cfg.variant));
    const std::size_t cell_span = ctx.spans.open("cell " + label, ctx.pass_span);
    harness::SmpRunResult r;
    {
      Timed t(ctx, "measure", cell_span, p.measure_s);
      r = harness::run_smp(cfg);
    }
    ctx.spans.close(cell_span);
    if (mask != 0) {
      add_counters(p.layer, trace::metrics().counters(), {});
    }
    faults_per_sec[vi] = r.faults_per_sec;
    p.sim_work += static_cast<double>(r.pages_touched);
    add_common(p, r);
    add_faults(p, r.faults, cfg.variant == harness::SmpVariant::kHpmmap);
    total.mmap_sem_wait += r.smp.mmap_sem_wait;
    total.pt_lock_wait += r.smp.pt_lock_wait;
    total.zone_lock_wait += r.smp.zone_lock_wait;
    total.ipi_stall += r.smp.ipi_stall;
    total.pcp_hits += r.smp.pcp_hits;
    total.pcp_misses += r.smp.pcp_misses;
    total.shootdown_ipis += r.smp.shootdown_ipis;
    total.shootdown_pages += r.smp.shootdown_pages;
    p.add_cell(label, digest_of(r));
    require(p, r.audit_violations == 0, vi, 1, label + ": MmAuditor violations\n" + r.audit_report);
  }
  p.layer["smp.lock_wait_cycles.mmap_sem"] = static_cast<double>(total.mmap_sem_wait);
  p.layer["smp.lock_wait_cycles.pt"] = static_cast<double>(total.pt_lock_wait);
  p.layer["smp.lock_wait_cycles.zone"] = static_cast<double>(total.zone_lock_wait);
  p.layer["smp.lock_wait_cycles.ipi"] = static_cast<double>(total.ipi_stall);
  const std::uint64_t pcp = total.pcp_hits + total.pcp_misses;
  p.layer["smp.pcp_hit_ratio"] =
      pcp > 0 ? static_cast<double>(total.pcp_hits) / static_cast<double>(pcp) : 0.0;
  p.layer["smp.shootdown_pages_per_ipi"] =
      total.shootdown_ipis > 0 ? static_cast<double>(total.shootdown_pages) /
                                     static_cast<double>(total.shootdown_ipis)
                               : 0.0;
  std::printf("  faults/s: Linux-1999 %.0f, Linux-today %.0f, HPMMAP %.0f\n", faults_per_sec[0],
              faults_per_sec[1], faults_per_sec[2]);
  require(p, faults_per_sec[2] > faults_per_sec[1] && faults_per_sec[1] > faults_per_sec[0], 0,
          3, "smp_storm: faults/s not ordered HPMMAP > Linux-today > Linux-1999");
  return p;
}

// --- workload table -----------------------------------------------------------

struct Workload {
  const char* name;
  PassResult (*pass)(Context&, const PassSpec&);
};

std::vector<Workload> workloads_table() {
  return {
      {"fig7_node", fig7_pass},
      {"fig8_cluster", fig8_pass},
      {"serve_slo", serve_pass},
      {"smp_storm", smp_pass},
  };
}

/// CPUs this process may run on (what `nproc` prints).
unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

// --- reporting ----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;
};

std::string fmt_value(const std::optional<double>& v) {
  if (!v.has_value() || !std::isfinite(*v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", *v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + ms[i].name + "\": {\"value\": " + fmt_value(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

/// Flat results file: the metrics by name, the cell digests, and the
/// environment stamp. bench_diff reads it (introspect::parse_bench_json).
void write_results(const Context& ctx, const std::string& path, const std::vector<Metric>& ms,
                   const PassResult& ref, std::size_t attempted, std::size_t failed) {
  std::ostringstream o;
  o << "{\n  \"bench\": \"perfbench\",\n"
    << "  \"workload\": \"" << ctx.opt.workload << "\",\n"
    << "  \"seed\": " << ctx.opt.seed << ",\n"
    << "  \"trace\": " << (ctx.opt.trace ? 1 : 0) << ",\n"
    << "  \"cells\": " << attempted << ",\n"
    << "  \"cells_failed\": " << failed << ",\n"
    << "  \"env\": {\n"
    << "    \"nproc\": " << nproc() << ",\n"
    << "    \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
    << "    \"compiler\": \"" << json_escape(
#if defined(__clang__)
           "clang "
#else
           "gcc "
#endif
           __VERSION__) << "\",\n"
    << "    \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\",\n"
    << "    \"build_flags\": \"" << json_escape(PERFBENCH_FLAGS) << "\",\n"
    << "    \"git_commit\": \"" << json_escape(ctx.opt.commit) << "\"\n"
    << "  },\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    o << "    \"" << ms[i].name << "\": " << fmt_value(ms[i].value)
      << (i + 1 == ms.size() ? "\n" : ",\n");
  }
  o << "  },\n  \"units\": {\n";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    o << "    \"" << ms[i].name << "\": \"" << ms[i].unit << "\""
      << (i + 1 == ms.size() ? "\n" : ",\n");
  }
  o << "  },\n  \"digests\": {\n";
  for (std::size_t i = 0; i < ref.labels.size(); ++i) {
    o << "    \"" << ref.labels[i] << "\": \"" << perfbench::hex(ref.digests[i]) << "\""
      << (i + 1 == ref.labels.size() ? "\n" : ",\n");
  }
  o << "  }\n}\n";
  std::ofstream(path) << o.str();
}

/// Expected per-cell digests for the default seed, from --expected.
struct Expected {
  std::uint64_t default_seed = 0;
  std::map<std::string, std::string> digests; // cell label -> hex
};

std::optional<Expected> load_expected(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::optional<introspect::BenchDoc> doc = introspect::parse_bench_json(ss.str());
  if (!doc.has_value()) {
    return std::nullopt;
  }
  Expected e;
  const auto seed = doc->numbers.find("default_seed");
  if (seed == doc->numbers.end()) {
    return std::nullopt;
  }
  e.default_seed = static_cast<std::uint64_t>(seed->second);
  const std::string prefix = "digests." + workload + ".";
  for (const auto& [k, v] : doc->strings) {
    if (k.rfind(prefix, 0) == 0) {
      e.digests[k.substr(prefix.size())] = v;
    }
  }
  return e;
}

} // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse(argc, argv);
  if (!opt.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
                 "                 [--out-dir DIR] [--expected FILE] [--commit SHA]\n");
    return 2;
  }
  Context ctx;
  ctx.opt = *opt;
  const std::vector<Workload> table = workloads_table();
  const Workload* w = nullptr;
  for (const Workload& cand : table) {
    if (ctx.opt.workload == cand.name) {
      w = &cand;
    }
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", ctx.opt.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(ctx.opt.out_dir);
  ctx.snap_path = ctx.opt.out_dir + "/perfbench_" + ctx.opt.workload + ".snap";

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::optional<PassResult> reference;
  // One pass over the grid; every cell's digest must equal the first
  // plain pass's (determinism, and the pure-observer contract for the
  // traced/audited/attributed passes).
  const auto run_pass = [&](const PassSpec& spec, const char* what) {
    ctx.spans.set_enabled(spec.kind == PassKind::kTraced);
    ctx.pass_span = ctx.spans.open(std::string("pass ") + what, 0);
    reset_peak_rss();
    ctx.clock.tick(true);
    const double host0 = ctx.clock.host_s();
    const double ref0 = ctx.clock.ref_s();
    PassResult p = w->pass(ctx, spec);
    ctx.clock.tick(true);
    p.wall_s = ctx.clock.host_s() - host0;
    p.ref_wall_s = ctx.clock.ref_s() - ref0;
    ctx.spans.close(ctx.pass_span);
    for (std::size_t i = 0; i < p.digests.size(); ++i) {
      bool bad = p.failed[i];
      if (reference.has_value() && (i >= reference->digests.size() ||
                                    reference->digests[i] != p.digests[i])) {
        std::fprintf(stderr, "perfbench: %s pass: cell %s digest %s differs from plain pass\n",
                     what, p.labels[i].c_str(), perfbench::hex(p.digests[i]).c_str());
        bad = true;
      }
      failed += bad ? 1 : 0;
    }
    attempted += p.digests.size();
    std::printf("pass %-10s wall %.3f s  ref %.3f s  setup %.3f s  measure %.3f s"
                "  cell rss %.1f MiB  cells %zu\n",
                what, p.wall_s, p.ref_wall_s, p.setup_s(), p.measure_s,
                perfbench::mean(p.cell_rss_mib), p.digests.size());
    std::fflush(stdout);
    if (!reference.has_value()) {
      reference = p;
    }
    return p;
  };

  const PassSpec plain{PassKind::kPlain, kClusterJobs};
  const Clock::time_point start = Clock::now();
  std::vector<PassResult> plains;
  plains.push_back(run_pass(plain, "plain"));

  // Default-seed digests must match the recorded ones.
  if (!ctx.opt.expected_path.empty()) {
    const std::optional<Expected> e = load_expected(ctx.opt.expected_path, ctx.opt.workload);
    if (!e.has_value()) {
      std::fprintf(stderr, "perfbench: cannot read %s\n", ctx.opt.expected_path.c_str());
      ++failed;
    } else if (e->default_seed == ctx.opt.seed) {
      for (std::size_t i = 0; i < reference->labels.size(); ++i) {
        const auto it = e->digests.find(reference->labels[i]);
        const std::string got = perfbench::hex(reference->digests[i]);
        if (it == e->digests.end() || it->second != got) {
          std::fprintf(stderr, "perfbench: cell %s digest %s != recorded %s\n",
                       reference->labels[i].c_str(), got.c_str(),
                       it == e->digests.end() ? "(none)" : it->second.c_str());
          ++failed;
        }
      }
    }
  }

  std::vector<Metric> metrics;
  std::string results_path = ctx.opt.out_dir + "/perfbench_" + ctx.opt.workload;
  if (!ctx.opt.trace) {
    // Closed loop: the next pass starts only when the previous returns,
    // and only when it should end within --seconds.
    while (plains.size() < kMinPasses ||
           seconds_since(start) + plains.back().wall_s < ctx.opt.seconds) {
      plains.push_back(run_pass(plain, "plain"));
    }
    std::vector<double> wall;
    std::vector<double> setup;
    std::vector<double> rss;
    for (const PassResult& p : plains) {
      wall.push_back(p.ref_wall_s);
      // Set-up runs inside the pass, at the pass's host speed.
      setup.push_back(p.setup_s() * p.ref_wall_s / p.wall_s);
      rss.insert(rss.end(), p.cell_rss_mib.begin(), p.cell_rss_mib.end());
    }
    metrics = {
        {"wall_ref_s", "s", perfbench::median(wall)},
        {"setup_s", "s", perfbench::median(setup)},
        {"cell_rss_mib", "MiB", perfbench::mean(rss)},
    };
    results_path += ".json";
  } else {
    const PassResult& base = plains.front();
    const PassResult traced = run_pass({PassKind::kTraced, kClusterJobs}, "traced");
    const PassResult audited = run_pass({PassKind::kAudited, kClusterJobs}, "audited");
    std::optional<double> speedup = 0.0;
    double attr_overhead = 0.0;
    if (ctx.opt.workload == "fig8_cluster") {
      // The same first cells on one worker and on kClusterJobs workers.
      const PassResult serial = run_pass({PassKind::kPlain, 1, kProbeCells}, "jobs=1");
      const PassResult parallel =
          run_pass({PassKind::kPlain, kClusterJobs, kProbeCells}, "jobs=N");
      // A speed-up measured with more threads than CPUs is noise.
      speedup = kClusterJobs <= nproc() ? std::optional(serial.measure_s / parallel.measure_s)
                                        : std::nullopt;
    } else if (ctx.opt.workload == "serve_slo") {
      attr_overhead = run_pass({PassKind::kAttributed, kClusterJobs}, "attributed").wall_s -
                      base.wall_s;
    }
    const auto L = [&](const char* k) { return traced.count(k); };
    const double linux_faults = L("linux_mm.faults");
    const double scans = L("khugepaged.scans");
    metrics = {
        {"wall_s", "s", base.wall_s},
        {"host.probe_s", "s", perfbench::median(ctx.clock.probes())},
        {"peak_rss_mib", "MiB", *std::max_element(base.cell_rss_mib.begin(),
                                                   base.cell_rss_mib.end())},
        {"sim_work_per_s", "1/s", base.sim_work / base.measure_s},
        {"harness.capture_s", "s", base.capture_s},
        {"harness.measure_s", "s", base.measure_s},
        {"harness.cells", "count", static_cast<double>(base.digests.size())},
        {"snapshot.save_s", "s", base.save_s},
        {"snapshot.load_s", "s", base.load_s},
        {"snapshot.image_mib", "MiB", base.image_bytes / (1024.0 * 1024.0)},
        {"sim.events", "count", L("sim.events")},
        {"sim.events_per_s", "1/s", L("sim.events") / base.measure_s},
        {"cluster.parallel_speedup", "x", speedup},
        {"cluster.events", "count", L("cluster.events")},
        {"linux_mm.faults.Small", "count", L("linux_mm.faults.Small")},
        {"linux_mm.faults.Large", "count", L("linux_mm.faults.Large")},
        {"linux_mm.faults.Merge", "count", L("linux_mm.faults.Merge")},
        {"linux_mm.fault_cycles.Small", "cycles", L("linux_mm.fault_cycles.Small")},
        {"linux_mm.fault_cycles.Large", "cycles", L("linux_mm.fault_cycles.Large")},
        {"linux_mm.fault_cycles.Merge", "cycles", L("linux_mm.fault_cycles.Merge")},
        {"linux_mm.faults_per_s", "1/s", linux_faults / base.measure_s},
        {"buddy.split_steps", "count", L("buddy.split_steps")},
        {"buddy.merge_steps", "count", L("buddy.merge_steps")},
        {"buddy.alloc_failed", "count", L("buddy.alloc_failed")},
        {"khugepaged.merges_completed", "count", L("khugepaged.merges_completed")},
        {"khugepaged.scans", "count", scans},
        {"khugepaged.merge_yield", "ratio",
         scans > 0 ? L("khugepaged.merges_completed") / scans : 0.0},
        {"mm.direct_reclaim", "count", L("mm.direct_reclaim")},
        {"mm.compaction", "count", L("mm.compaction")},
        {"mm.kswapd_wakeups", "count", L("mm.kswapd_wakeups")},
        {"linux_mm.thp_fallbacks", "count", L("linux_mm.thp_fallbacks")},
        {"hugetlb.pool_exhausted", "count", L("hugetlb.pool_exhausted")},
        {"smp.lock_wait_cycles.mmap_sem", "cycles", L("smp.lock_wait_cycles.mmap_sem")},
        {"smp.lock_wait_cycles.pt", "cycles", L("smp.lock_wait_cycles.pt")},
        {"smp.lock_wait_cycles.zone", "cycles", L("smp.lock_wait_cycles.zone")},
        {"smp.lock_wait_cycles.ipi", "cycles", L("smp.lock_wait_cycles.ipi")},
        {"smp.pcp_hit_ratio", "ratio", L("smp.pcp_hit_ratio")},
        {"smp.shootdown_pages_per_ipi", "ratio", L("smp.shootdown_pages_per_ipi")},
        {"smp.shootdown.rounds", "count", L("smp.shootdown.rounds")},
        {"core.faults", "count", L("core.faults")},
        {"core.spurious_faults", "count", L("core.spurious_faults")},
        {"hpmmap.bytes_backed", "bytes", L("hpmmap.bytes_backed")},
        {"serving.completed", "count", L("serving.completed")},
        {"serving.shed_ratio", "ratio", L("serving.shed_ratio")},
        {"serving.slo_violations", "count", L("serving.slo_violations")},
        {"serving.p99_us", "us", L("serving.p99_us")},
        {"serving.slab_recycle_ratio", "ratio", L("serving.slab_recycle_ratio")},
        {"serving.cache_hit_ratio", "ratio", L("serving.cache_hit_ratio")},
        {"trace.events", "count", L("trace.events")},
        {"trace.dropped", "count", L("trace.dropped")},
        {"trace.overhead_s", "s", traced.wall_s - base.wall_s},
        {"verify.audit_checks", "count", audited.count("verify.audit_checks")},
        {"verify.audit_violations", "count", audited.count("verify.audit_violations")},
        {"verify.audit_overhead_s", "s", audited.wall_s - base.wall_s},
        {"profile.attr_residual_errors", "count", L("profile.attr_residual_errors")},
        {"profile.attr_overhead_s", "s", attr_overhead},
        {"paper_gap", "ratio", std::isfinite(base.paper_gap) ? base.paper_gap : 0.0},
    };
    ctx.spans.write(ctx.opt.out_dir + "/perfbench_" + ctx.opt.workload + "_spans.json");
    results_path += "_traced.json";
  }
  std::filesystem::remove(ctx.snap_path);
  write_results(ctx, results_path, metrics, *reference, attempted, failed);
  std::printf("paper_gap %.6f  cells %zu  failed %zu  results %s\n",
              std::isfinite(reference->paper_gap) ? reference->paper_gap : 0.0, attempted, failed,
              results_path.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed, metrics_json(metrics).c_str());
  return 0;
}
