#include "harness/experiment.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "harness/batch.hpp"
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

// --- prepared worlds --------------------------------------------------------
//
// Each run shape splits into "prepare" (boot the machine, arm
// verification, construct the commodity builds) and "measure" (launch
// the benchmark and collect). The straight path ages the world to the
// warmup point between the two; the snapshot path either captures at
// that point or skips aging entirely and overwrites the fresh world
// with a captured image. Constructing every build before starting any
// (instead of the old start-in-the-loop) is order-identical on the
// engine: the constructor schedules nothing.

struct SingleNodeWorld {
  SingleNodeRunConfig config;
  hw::MachineSpec machine = hw::dell_r415();
  sim::Engine engine;
  std::optional<os::Node> node;
  std::optional<detail::VerifySession> verify;
  std::vector<std::unique_ptr<workloads::KernelBuild>> builds;

  SingleNodeWorld(const SingleNodeRunConfig& cfg, bool aged) : config(cfg) {
    detail::begin_tracing(config.trace, config.seed);
    // §IV: 12 of 16 GB reserved/offlined, split across the two zones.
    // Scaled-down runs (tests) reserve proportionally less so the Linux
    // side keeps its 4 GB.
    const std::uint64_t pool = std::min<std::uint64_t>(
        align_up(static_cast<std::uint64_t>(static_cast<double>(6 * GiB) *
                                            config.footprint_scale),
                 kMemorySectionSize),
        6 * GiB);
    os::NodeConfig nc =
        detail::node_config_for(config.manager, machine, pool, config.seed, "r415");
    nc.aged_boot = aged; // a restore target skips aging — it gets overwritten
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
};

RunResult measure_single_node(SingleNodeWorld& w) {
  const SingleNodeRunConfig& config = w.config;
  sim::Engine& engine = w.engine;
  os::Node& node = *w.node;

  workloads::MpiJobConfig jc;
  jc.app = detail::scaled_profile(config.app, w.machine.clock_hz, config.footprint_scale,
                          config.duration_scale);
  jc.policy = detail::policy_for(config.manager);
  jc.ranks = detail::placements(node, config.app_cores);
  workloads::MpiJob job(engine, jc);
  const Cycles job_start = engine.now();
  // Sampling brackets the job: the first sample lands at job_start
  // (= trace_t0), and daemon scheduling means the sampler never extends
  // the run past job completion.
  introspect::TelemetrySampler sampler(
      engine, {config.introspect.sample_interval, config.introspect.max_samples});
  sampler.add_node(node);
  if (config.introspect.sampling()) {
    sampler.start();
  }
  job.start([&engine] { engine.stop(); });
  engine.run();
  HPMMAP_ASSERT(job.done(), "engine drained before the job completed");

  for (auto& build : w.builds) {
    build->stop();
  }
  RunResult result = detail::collect(job, node, config.trace, job_start, w.machine.clock_hz);
  result.events_fired = engine.events_fired();
  result.telemetry = sampler.take();
  if (config.introspect.procfs_dump) {
    result.procfs_text = introspect::procfs_dump(node);
  }
  w.verify->finish(result, {&node});
  return result;
}

struct ServerWorld {
  ServerRunConfig config;
  hw::MachineSpec machine = hw::dell_r415();
  sim::Engine engine;
  std::optional<os::Node> node;
  std::optional<detail::VerifySession> verify;
  std::vector<std::unique_ptr<workloads::KernelBuild>> builds;

  ServerWorld(const ServerRunConfig& cfg, bool aged) : config(cfg) {
    detail::begin_tracing(config.trace, config.seed);
    // Same reservation split as the single-node runs: the serving side
    // gets the 12 GB pool/offline region, the commodity side keeps 4 GB.
    const std::uint64_t pool = 6 * GiB;
    os::NodeConfig nc =
        detail::node_config_for(config.manager, machine, pool, config.seed, "r415");
    nc.aged_boot = aged;
    node.emplace(engine, std::move(nc));
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
};

ServerRunResult measure_server(ServerWorld& w) {
  const ServerRunConfig& config = w.config;
  sim::Engine& engine = w.engine;
  os::Node& node = *w.node;
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
  workloads::ServerApp server(engine, node, std::move(service), std::move(schedule),
                              rng.fork("server"));
  profile::RequestProfiler profiler;
  if (config.attribution) {
    server.set_profiler(&profiler);
  }

  const Cycles t0 = engine.now();
  introspect::TelemetrySampler sampler(
      engine, {config.introspect.sample_interval, config.introspect.max_samples});
  sampler.add_node(node);
  // Service-side probes: pure observers on the actor, so sampling stays
  // byte-identical-off-vs-on like every other telemetry source.
  const std::string labels = "node=\"" + node.config().name + "\"";
  sampler.add_probe("hpmmap_server_queue_depth", labels, "gauge",
                    [&server] { return server.queue_depth_now(); });
  sampler.add_probe("hpmmap_server_in_flight", labels, "gauge",
                    [&server] { return server.in_flight_now(); });
  sampler.add_probe("hpmmap_server_shed_total", labels, "counter",
                    [&server] { return server.shed_total(); });
  sampler.add_probe("hpmmap_server_completed_total", labels, "counter",
                    [&server] { return server.completed_total(); });
  if (config.introspect.sampling()) {
    sampler.start();
  }
  server.start([&engine] { engine.stop(); });
  engine.run();
  HPMMAP_ASSERT(server.done(), "engine drained before the service completed");

  for (auto& build : w.builds) {
    build->stop();
  }

  ServerRunResult result;
  result.runtime_seconds = w.machine.seconds(engine.now() - t0);
  result.clock_hz = w.machine.clock_hz;
  result.server = server.stats();
  result.faults = server.aggregate_faults();
  result.trace_t0 = t0;
  result.events_fired = engine.events_fired();

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

  if (config.trace.on()) {
    trace::instant(trace::Category::kHarness, "run.end", 0, -1,
                   {trace::Arg::u64("completed", result.server.completed)});
    trace::disable_all();
    result.events = trace::recorder().snapshot();
    result.trace_dropped = trace::recorder().dropped();
  }
  if (config.attribution) {
    result.attribution = profiler.take();
  }
  result.telemetry = sampler.take();
  if (config.introspect.procfs_dump) {
    result.procfs_text = introspect::procfs_dump(node);
  }
  w.verify->finish(result, {&node});
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
  SingleNodeWorld world(config, /*aged=*/true);
  world.age_to_warmup();
  return measure_single_node(world);
}

snapshot::WorldImage capture_single_node(const SingleNodeRunConfig& config) {
  SingleNodeWorld world(config, /*aged=*/true);
  world.age_to_warmup();
  return snapshot::capture_world(world.engine, {&*world.node}, world.build_refs());
}

RunResult run_single_node(const SingleNodeRunConfig& config,
                          const snapshot::WorldImage& image) {
  SingleNodeWorld world(config, /*aged=*/false);
  snapshot::restore_world(image, world.engine, {&*world.node}, world.build_refs());
  return measure_single_node(world);
}

ServerRunResult run_server(const ServerRunConfig& config) {
  ServerWorld world(config, /*aged=*/true);
  world.age_to_warmup();
  return measure_server(world);
}

snapshot::WorldImage capture_server(const ServerRunConfig& config) {
  ServerWorld world(config, /*aged=*/true);
  world.age_to_warmup();
  return snapshot::capture_world(world.engine, {&*world.node}, world.build_refs());
}

ServerRunResult run_server(const ServerRunConfig& config,
                           const snapshot::WorldImage& image) {
  ServerWorld world(config, /*aged=*/false);
  snapshot::restore_world(image, world.engine, {&*world.node}, world.build_refs());
  return measure_server(world);
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
  if (config.trace.on()) {
    trace::instant(trace::Category::kHarness, "run.end", 0, -1,
                   {trace::Arg::u64("runtime_cycles", storm.span_cycles())});
    trace::disable_all();
    result.events = trace::recorder().snapshot();
    result.trace_dropped = trace::recorder().dropped();
  }
  verify.finish(result, {&node});
  return result;
}

std::vector<SmpRunResult> run_smp_batch(const std::vector<SmpRunConfig>& configs) {
  BatchRunner runner(default_jobs());
  std::vector<std::function<SmpRunResult()>> tasks;
  tasks.reserve(configs.size());
  for (const SmpRunConfig& c : configs) {
    tasks.push_back([c] { return run_smp(c); });
  }
  return runner.map(std::move(tasks));
}

} // namespace hpmmap::harness
