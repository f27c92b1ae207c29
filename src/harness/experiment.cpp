#include "harness/experiment.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "harness/census.hpp"
#include "harness/detail.hpp"
#include "common/assert.hpp"
#include "common/units.hpp"
#include "introspect/procfs.hpp"
#include "os/node.hpp"
#include "sim/engine.hpp"
#include "trace/metrics.hpp"
#include "verify/audit.hpp"
#include "workloads/kernel_build.hpp"
#include "workloads/mpi_app.hpp"
#include "workloads/smp_storm.hpp"

namespace hpmmap::harness {
namespace {

// --- the node world ---------------------------------------------------------
//
// One Dell R415 under either single-node shape (detail.hpp's World
// concept). The shapes differ only in their reservation and in what
// measure() launches: the hpc job or the serving window.

/// §IV: 12 of 16 GB reserved/offlined, split across the two zones.
/// Scaled-down hpc runs (tests) reserve proportionally less so the Linux
/// side keeps its 4 GB; the serving side always gets the full region.
std::uint64_t reservation(const SingleNodeRunConfig& config) {
  return std::min<std::uint64_t>(
      align_up(static_cast<std::uint64_t>(static_cast<double>(6 * GiB) *
                                          config.footprint_scale),
               kMemorySectionSize),
      6 * GiB);
}
std::uint64_t reservation(const ServerRunConfig&) { return 6 * GiB; }

template <typename Config>
struct NodeWorld {
  Config config;
  hw::MachineSpec machine = hw::dell_r415();
  sim::Engine engine;
  std::optional<os::Node> node;
  std::optional<detail::VerifySession> verify;
  std::vector<std::unique_ptr<workloads::KernelBuild>> builds;

  NodeWorld(const Config& cfg, bool aged) : config(cfg) {
    detail::begin_tracing(config.trace, config.seed);
    os::NodeConfig nc = detail::node_config_for(config.manager, machine, reservation(config),
                                                config.seed, "r415");
    nc.aged_boot = aged;
    node.emplace(engine, std::move(nc));
    // Arm only after boot: the hugetlb reservation and module load assert
    // on allocation success and must never see injected failures.
    verify.emplace(config.verify, config.seed);
    verify->audit_on_fire(*node);

    Rng rng(config.seed);
    for (std::uint32_t b = 0; b < config.commodity.builds; ++b) {
      workloads::KernelBuildConfig bc;
      bc.jobs = config.commodity.jobs_per_build;
      builds.push_back(std::make_unique<workloads::KernelBuild>(
          *node, bc, rng.fork("build").fork(b)));
    }
  }

  /// Let the builds reach steady state (page cache warm, fragmentation
  /// developing) before the benchmark launches.
  void age_to_warmup() {
    for (auto& build : builds) {
      build->start();
    }
    const double warmup = config.commodity.builds > 0 ? config.warmup_seconds : 0.1;
    engine.run_until(machine.cycles(warmup));
  }

  [[nodiscard]] std::vector<snapshot::BuildRef> build_refs() {
    std::vector<snapshot::BuildRef> refs;
    for (auto& build : builds) {
      refs.push_back(snapshot::BuildRef{build.get(), 0});
    }
    return refs;
  }
  [[nodiscard]] snapshot::WorldImage capture() {
    return snapshot::capture_world(engine, {&*node}, build_refs());
  }
  void restore(const snapshot::WorldImage& image) {
    snapshot::restore_world(image, engine, {&*node}, build_refs());
  }

  /// Run the launched workload to completion and stop the builds.
  /// Sampling brackets it: the first sample lands at launch (= trace_t0),
  /// and daemon scheduling means the sampler never extends the run.
  template <typename Workload>
  void run(Workload& workload, introspect::TelemetrySampler& sampler) {
    if (config.introspect.sampling()) {
      sampler.start();
    }
    workload.start([this] { engine.stop(); });
    engine.run();
    HPMMAP_ASSERT(workload.done(), "engine drained before the workload completed");
    for (auto& build : builds) {
      build->stop();
    }
  }

  /// The result tail both shapes share, after the trace tail.
  template <typename R>
  void finish(R& result, introspect::TelemetrySampler& sampler) {
    result.events_fired = engine.events_fired();
    result.telemetry = sampler.take();
    if (config.introspect.procfs_dump) {
      result.procfs_text = introspect::procfs_dump(*node);
    }
    verify->finish(result, {&*node});
    record_census({&*node});
  }
};

using SingleNodeWorld = NodeWorld<SingleNodeRunConfig>;
using ServerWorld = NodeWorld<ServerRunConfig>;

RunResult measure(SingleNodeWorld& w) {
  const SingleNodeRunConfig& config = w.config;
  workloads::MpiJobConfig jc;
  jc.app = detail::scaled_profile(config.app, w.machine.clock_hz, config.footprint_scale,
                                  config.duration_scale);
  jc.policy = detail::policy_for(config.manager);
  jc.ranks = detail::placements(*w.node, config.app_cores);
  workloads::MpiJob job(w.engine, jc);
  const Cycles job_start = w.engine.now();
  introspect::TelemetrySampler sampler(
      w.engine, {config.introspect.sample_interval, config.introspect.max_samples});
  sampler.add_node(*w.node);
  w.run(job, sampler);

  RunResult result = detail::collect_jobs({&job}, w.machine.clock_hz, job_start);
  detail::end_tracing(result, config.trace,
                      trace::Arg::u64("runtime_cycles", job.runtime_cycles()));
  detail::fill_by_kind(result, config.trace);
  detail::fill_node_stats(result, *w.node);
  w.finish(result, sampler);
  return result;
}

ServerRunResult measure(ServerWorld& w) {
  const ServerRunConfig& config = w.config;
  Rng rng(config.seed);

  // The schedule is generated before anything serves: a pure function of
  // (arrival config, clock, seed), so every manager replays the same one.
  serving::ArrivalConfig arrival = config.arrival;
  arrival.duration_seconds *= config.duration_scale;
  std::vector<serving::ScheduledRequest> schedule =
      serving::generate_schedule(arrival, w.machine.clock_hz, rng.fork("arrival"));

  workloads::ServerConfig service = config.service;
  service.policy = detail::policy_for(config.manager);
  service.zone = 0;
  if (service.budgets.empty()) {
    service.budgets = {
        {"lat<2ms", w.machine.cycles(0.002)},
        {"lat<10ms", w.machine.cycles(0.010)},
    };
  }
  workloads::ServerApp server(w.engine, *w.node, std::move(service), std::move(schedule),
                              rng.fork("server"));
  profile::RequestProfiler profiler;
  if (config.attribution) {
    server.set_profiler(&profiler);
  }

  const Cycles t0 = w.engine.now();
  introspect::TelemetrySampler sampler(
      w.engine, {config.introspect.sample_interval, config.introspect.max_samples});
  sampler.add_node(*w.node);
  // Service-side probes: pure observers on the actor, so sampling stays
  // byte-identical-off-vs-on like every other telemetry source.
  const std::string labels = "node=\"" + w.node->config().name + "\"";
  sampler.add_probe("hpmmap_server_queue_depth", labels, "gauge",
                    [&server] { return server.queue_depth_now(); });
  sampler.add_probe("hpmmap_server_in_flight", labels, "gauge",
                    [&server] { return server.in_flight_now(); });
  sampler.add_probe("hpmmap_server_shed_total", labels, "counter",
                    [&server] { return server.shed_total(); });
  sampler.add_probe("hpmmap_server_completed_total", labels, "counter",
                    [&server] { return server.completed_total(); });
  w.run(server, sampler);

  ServerRunResult result;
  result.runtime_seconds = w.machine.seconds(w.engine.now() - t0);
  result.clock_hz = w.machine.clock_hz;
  result.server = server.stats();
  result.faults = server.aggregate_faults();
  result.trace_t0 = t0;

  const serving::LatencyRecorder& lat = server.latency();
  result.tail.p50_us = lat.tails().p50();
  result.tail.p95_us = lat.tails().p95();
  result.tail.p99_us = lat.tails().p99();
  result.tail.p999_us = lat.tails().p999();
  result.tail.exact_p50_us = lat.reservoir().quantile(0.50);
  result.tail.exact_p99_us = lat.reservoir().quantile(0.99);
  result.tail.exact_p999_us = lat.reservoir().quantile(0.999);
  result.tail.mean_us = lat.tails().mean();
  result.tail.max_us = lat.tails().max();
  result.tail.samples = lat.tails().count();

  const serving::SloAccountant& slo = server.slo();
  for (std::size_t i = 0; i < slo.budget_count(); ++i) {
    SloOutcome o;
    o.label = slo.budget(i).label;
    o.budget_us = w.machine.seconds(slo.budget(i).budget) * 1e6;
    o.violations = slo.violations(i);
    result.slo.push_back(std::move(o));
  }
  result.slo_total = slo.total_violations();

  detail::end_tracing(result, config.trace,
                      trace::Arg::u64("completed", result.server.completed));
  if (config.attribution) {
    result.attribution = profiler.take();
  }
  w.finish(result, sampler);
  return result;
}

} // namespace

std::vector<FaultSample> app_fault_samples(const RunResult& r) {
  std::vector<FaultSample> out;
  for (const trace::Event& e : r.events) {
    if (e.cat != trace::Category::kFault || e.phase != trace::Phase::kComplete ||
        e.name() != "fault") {
      continue;
    }
    if (std::find(r.app_pids.begin(), r.app_pids.end(), e.pid) == r.app_pids.end()) {
      continue;
    }
    FaultSample s;
    s.when = e.ts;
    s.cost = e.dur;
    s.pid = e.pid;
    bool have_kind = false;
    for (std::uint8_t a = 0; a < e.arg_count; ++a) {
      const trace::Arg& arg = e.args[a];
      if (arg.kind == trace::Arg::Kind::kStr && std::string_view{arg.name} == "kind") {
        if (const auto kind = detail::kind_from_label(arg.value.str)) {
          s.kind = *kind;
          have_kind = true;
        }
      }
    }
    if (have_kind) {
      out.push_back(s);
    }
  }
  // The ring holds push order; merges scheduled on the engine interleave,
  // so impose time order (pid breaks ties deterministically).
  std::sort(out.begin(), out.end(), [](const FaultSample& a, const FaultSample& b) {
    return a.when != b.when ? a.when < b.when : a.pid < b.pid;
  });
  return out;
}

RunResult run_single_node(const SingleNodeRunConfig& config) {
  return detail::run_straight<SingleNodeWorld>(config);
}

snapshot::WorldImage capture_single_node(const SingleNodeRunConfig& config) {
  return detail::capture<SingleNodeWorld>(config);
}

RunResult run_single_node(const SingleNodeRunConfig& config,
                          const snapshot::WorldImage& image) {
  return detail::resume<SingleNodeWorld>(config, image);
}

ServerRunResult run_server(const ServerRunConfig& config) {
  return detail::run_straight<ServerWorld>(config);
}

snapshot::WorldImage capture_server(const ServerRunConfig& config) {
  return detail::capture<ServerWorld>(config);
}

ServerRunResult run_server(const ServerRunConfig& config,
                           const snapshot::WorldImage& image) {
  return detail::resume<ServerWorld>(config, image);
}

std::vector<introspect::TimeSeries> merged_telemetry(const std::vector<RunResult>& runs) {
  std::vector<introspect::TimeSeries> out;
  for (std::size_t t = 0; t < runs.size(); ++t) {
    const std::string trial = "trial=\"" + std::to_string(t) + "\"";
    for (const introspect::TimeSeries& s : runs[t].telemetry) {
      introspect::TimeSeries copy = s;
      copy.labels = s.labels.empty() ? trial : s.labels + "," + trial;
      out.push_back(std::move(copy));
    }
  }
  return out;
}

SmpRunResult run_smp(const SmpRunConfig& config) {
  detail::begin_tracing(config.trace, config.seed);

  hw::MachineSpec machine = hw::dell_r415();
  // Widen the socket grid to the requested core count; the R415's two
  // NUMA zones, clock and bandwidth model stay.
  machine.cores_per_socket = (config.cores + machine.sockets - 1) / machine.sockets;
  if (machine.total_cores() < config.cores) {
    machine.cores_per_socket = config.cores;
    machine.sockets = 1;
  }

  os::NodeConfig nc;
  nc.machine = machine;
  nc.thp_enabled = false; // the storm is a 4K study; THP is PR-orthogonal
  nc.aged_boot = false;   // pristine freelists: contention, not fragmentation
  nc.seed = config.seed;
  nc.name = "smp0";
  if (config.variant == SmpVariant::kHpmmap) {
    nc.hpmmap = core::ModuleConfig{};
  } else {
    mm::SmpConfig sc;
    sc.cores = config.cores;
    const bool modern = config.variant == SmpVariant::kLinuxToday;
    sc.pcp = config.pcp.value_or(modern);
    sc.sharded_pt_locks = config.sharded_pt_locks.value_or(modern);
    sc.batched_shootdowns = config.batched_shootdowns.value_or(modern);
    nc.smp = sc;
  }

  sim::Engine engine;
  os::Node node(engine, std::move(nc));
  detail::VerifySession verify(config.verify, config.seed);
  verify.audit_on_fire(node);

  workloads::SmpStormConfig sc;
  sc.cores = config.cores;
  sc.shared_process = config.variant != SmpVariant::kHpmmap;
  sc.policy = config.variant == SmpVariant::kHpmmap ? os::MmPolicy::kHpmmap
                                                    : os::MmPolicy::kLinuxPlain;
  sc.rounds = config.rounds;
  sc.slab_bytes = config.slab_bytes;
  workloads::SmpStorm storm(engine, node, sc);
  const Cycles t0 = engine.now();
  storm.start([&engine] { engine.stop(); });
  engine.run();
  HPMMAP_ASSERT(storm.done(), "engine drained before the storm completed");

  SmpRunResult result;
  result.cores = config.cores;
  result.pages_touched = storm.pages_touched();
  result.seconds = machine.seconds(storm.span_cycles());
  result.faults_per_sec =
      result.seconds > 0.0 ? static_cast<double>(result.pages_touched) / result.seconds : 0.0;
  result.clock_hz = machine.clock_hz;
  if (node.smp() != nullptr) {
    result.smp = node.smp()->stats();
  }
  result.faults = storm.aggregate_faults();
  result.events_fired = engine.events_fired();
  result.trace_t0 = t0;
  detail::end_tracing(result, config.trace,
                      trace::Arg::u64("runtime_cycles", storm.span_cycles()));
  verify.finish(result, {&node});
  record_census({&node});
  return result;
}

} // namespace hpmmap::harness
