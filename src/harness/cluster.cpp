#include "harness/cluster.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "harness/detail.hpp"
#include "introspect/procfs.hpp"
#include "introspect/sampler.hpp"
#include "os/node.hpp"
#include "sim/parallel.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "verify/fault_inject.hpp"
#include "workloads/kernel_build.hpp"
#include "workloads/mpi_app.hpp"

namespace hpmmap::harness {
namespace {

/// One node's slice of the distributed world: its engine plus the full
/// per-run context — flight recorder, metric registry, fault injector,
/// trace clock — that enter()/leave() bind to whichever thread executes
/// the slice. The coordinator guarantees a group runs on one thread at a
/// time, so the context needs no locks; binding it per slice is what
/// makes the output independent of --cluster-jobs.
struct NodeGroup {
  sim::Engine engine;
  trace::FlightRecorder recorder{0};
  trace::MetricRegistry metrics;
  verify::FaultInjector injector;
  std::uint32_t trace_mask = 0;
  /// Barrier resolution stamps trace events at the *global* arrival time
  /// while each engine's clock still shows its local arrival; pin_clock
  /// overrides the thread's trace clock with this value.
  Cycles pinned_time = 0;

  std::optional<os::Node> node;
  std::vector<std::unique_ptr<workloads::KernelBuild>> builds;
  std::optional<detail::VerifySession> verify;
  std::optional<workloads::MpiJob> job;
  std::optional<introspect::TelemetrySampler> sampler;

  void enter() {
    trace::set_clock(&NodeGroup::engine_now, &engine);
    trace::set_recorder_override(&recorder);
    trace::set_metrics_override(&metrics);
    verify::set_injector_override(&injector);
    trace::enable(trace_mask);
  }
  void leave() {
    trace::disable_all();
    verify::set_injector_override(nullptr);
    trace::set_metrics_override(nullptr);
    trace::set_recorder_override(nullptr);
    trace::clear_clock(&engine);
    trace::clear_clock(this); // pinned-clock bracket, if one was installed
  }
  void pin_clock(Cycles t) {
    pinned_time = t;
    trace::set_clock(&NodeGroup::pinned, this);
  }

  [[nodiscard]] std::vector<snapshot::BuildRef> build_refs() {
    std::vector<snapshot::BuildRef> refs;
    for (auto& build : builds) {
      refs.push_back(snapshot::BuildRef{build.get(), 0});
    }
    return refs;
  }

 private:
  static Cycles engine_now(const void* ctx) {
    return static_cast<const sim::Engine*>(ctx)->now();
  }
  static Cycles pinned(const void* ctx) {
    return static_cast<const NodeGroup*>(ctx)->pinned_time;
  }
};

/// RAII context bracket for controller-side work on a group (boot,
/// barrier resolution, collection). Engine slices get the same bracket
/// through the coordinator's GroupHooks instead.
class Bound {
 public:
  explicit Bound(NodeGroup& g) : g_(g) { g_.enter(); }
  Bound(NodeGroup& g, Cycles pinned) : g_(g) {
    g_.enter();
    g_.pin_clock(pinned);
  }
  ~Bound() { g_.leave(); }
  Bound(const Bound&) = delete;
  Bound& operator=(const Bound&) = delete;

 private:
  NodeGroup& g_;
};

struct ClusterWorld {
  ClusterRunConfig config;
  hw::MachineSpec machine = hw::sandia_xeon_node();
  // §IV: 20 of 24 GB offlined per node, split across the two zones.
  std::uint64_t pool = 10 * GiB;
  std::vector<std::unique_ptr<NodeGroup>> groups;
  sim::ParallelCoordinator coord;

  ClusterWorld(const ClusterRunConfig& cfg, bool aged)
      : config(cfg), coord(cfg.cluster_jobs) {
    const ScalingRunConfig& sc = config.scaling;
    HPMMAP_ASSERT(sc.nodes >= 1, "cluster needs at least one node");
    HPMMAP_ASSERT(cluster::topology_supports(config.topology, sc.nodes),
                  "tree collectives need a power-of-two node count");
    groups.reserve(sc.nodes);
    for (std::uint32_t n = 0; n < sc.nodes; ++n) {
      groups.push_back(std::make_unique<NodeGroup>());
      NodeGroup* g = groups.back().get();
      g->trace_mask = sc.trace.categories;
      coord.add_group(g->engine, {[g] { g->enter(); }, [g] { g->leave(); }});
    }

    // Mirrors detail::begin_tracing: one ring per group, the single
    // run.start instant on node 0's stream, and the caller's registry
    // reset for the node counters merged into it at the end (per-group
    // registries are freshly constructed).
    if (sc.trace.on()) {
      trace::metrics().reset();
      for (auto& g : groups) {
        g->recorder.set_capacity(sc.trace.capacity);
      }
      Bound b(*groups.front());
      trace::instant(trace::Category::kHarness, "run.start", 0, -1,
                     {trace::Arg::u64("seed", sc.seed)});
    }

    // Boot and age each node on the worker pool, under its own context:
    // boot trace/metrics land in that group, and the group's injector
    // (armed only after boot — boot paths assert on allocation success)
    // is the one its mm stack sees. A node's boot reads only its own
    // seed and writes only its own group, so the result is the same on
    // any number of workers.
    coord.run_on_groups([this, &sc, aged](std::size_t n) {
      NodeGroup& g = *groups[n];
      os::NodeConfig nc = detail::node_config_for(
          sc.manager, machine, pool, sc.seed + 7919ull * n, "xeon" + std::to_string(n));
      nc.aged_boot = aged; // a restore target skips aging — it gets overwritten
      g.node.emplace(g.engine, std::move(nc));
      g.verify.emplace(sc.verify, sc.seed);
    });
    // Debug-mode audits cover the first node (injections arm per group;
    // the end-of-run audit walks every node).
    groups.front()->verify->audit_on_fire(*groups.front()->node);

    Rng rng(sc.seed);
    for (std::uint32_t n = 0; n < sc.nodes; ++n) {
      NodeGroup& g = *groups[n];
      Bound b(g);
      for (std::uint32_t bld = 0; bld < sc.commodity.builds; ++bld) {
        workloads::KernelBuildConfig bc;
        bc.jobs = sc.commodity.jobs_per_build;
        g.builds.push_back(std::make_unique<workloads::KernelBuild>(
            *g.node, bc, rng.fork("build").fork(n * 16 + bld)));
      }
    }
  }

  void age_to_warmup() {
    for (auto& g : groups) {
      Bound b(*g);
      for (auto& build : g->builds) {
        build->start();
      }
    }
    const double warmup =
        config.scaling.commodity.builds > 0 ? config.scaling.warmup_seconds : 0.1;
    coord.run_phase_until(machine.cycles(warmup));
  }

  /// One image per node, each captured under its node's context.
  [[nodiscard]] ClusterImage capture() {
    ClusterImage image;
    image.reserve(groups.size());
    for (auto& g : groups) {
      Bound b(*g);
      image.push_back(snapshot::capture_world(g->engine, {&*g->node}, g->build_refs()));
    }
    return image;
  }

  /// Each node is restored under its own context on the worker pool.
  void restore(const ClusterImage& image) {
    HPMMAP_ASSERT(image.size() == groups.size(), "cluster image node count mismatch");
    coord.run_on_groups([this, &image](std::size_t n) {
      NodeGroup& g = *groups[n];
      snapshot::restore_world(image[n], g.engine, {&*g.node}, g.build_refs());
    });
  }
};

RunResult measure(ClusterWorld& w) {
  const ScalingRunConfig& sc = w.config.scaling;
  const std::uint32_t nodes = sc.nodes;
  const std::uint64_t total_ranks =
      static_cast<std::uint64_t>(nodes) * sc.ranks_per_node;
  Rng rng(sc.seed);

  // §IV-C: inputs chosen "to maximize the memory utilization" — on the
  // 24 GB nodes, 4 ranks split the 20 GB reservation, not the single-node
  // footprint.
  workloads::AppProfile app = detail::scaled_profile(
      sc.app, w.machine.clock_hz, sc.footprint_scale, sc.duration_scale);
  const std::uint64_t budget_per_rank =
      (2 * w.pool * 92 / 100) / sc.ranks_per_node - app.misc_bytes;
  app.bytes_per_rank = align_up(
      static_cast<std::uint64_t>(static_cast<double>(budget_per_rank) *
                                 sc.footprint_scale),
      kLargePageSize);

  cluster::EthernetSpec eth;
  // One comm stream for the whole job: the controller draws each
  // barrier's collective cost exactly once.
  workloads::CommModel comm_model = cluster::ethernet_comm(
      eth, w.machine.clock_hz, nodes, rng.fork("net"), w.config.topology);

  // Local barrier arrivals, one slot per group. Each group's hook writes
  // only its own slot from inside its engine slice; the coordinator's
  // phase join publishes the writes to the controller.
  std::vector<Cycles> arrivals(nodes, sim::Engine::kNoEvent);

  const Cycles job_start = w.groups.front()->engine.now();
  for (std::uint32_t n = 0; n < nodes; ++n) {
    NodeGroup& g = *w.groups[n];
    Bound b(g);
    workloads::MpiJobConfig jc;
    jc.app = app;
    jc.policy = detail::policy_for(sc.manager);
    jc.ranks = detail::placements(*g.node, sc.ranks_per_node);
    NodeGroup* gp = &g;
    Cycles* slot = &arrivals[n];
    jc.barrier_hook = [gp, slot](Cycles t) {
      *slot = t;
      gp->engine.stop();
    };
    g.job.emplace(g.engine, std::move(jc));
    g.sampler.emplace(g.engine, introspect::SamplerConfig{sc.introspect.sample_interval,
                                                          sc.introspect.max_samples});
    g.sampler->add_node(*g.node);
    if (sc.introspect.sampling()) {
      g.sampler->start();
    }
    g.job->start([gp] { gp->engine.stop(); });
  }

  // Rendezvous loop: run every engine to its local barrier arrival (the
  // hook stops it), resolve the global barrier single-threaded, repeat.
  // No release ever lands behind a node's clock: the release time
  // T + comm is >= the max arrival T >= every local clock (and the
  // engine's schedule_at asserts this on every release regardless).
  while (true) {
    w.coord.run_phase();
    bool all_arrived = true;
    for (const Cycles a : arrivals) {
      if (a == sim::Engine::kNoEvent) {
        all_arrived = false;
        break;
      }
    }
    if (!all_arrived) {
      // No full house: the finish events ran and stopped the engines.
      break;
    }
    Cycles barrier_time = 0;
    for (const Cycles a : arrivals) {
      barrier_time = std::max(barrier_time, a);
    }
    std::fill(arrivals.begin(), arrivals.end(), sim::Engine::kNoEvent);
    // The collective draw runs in node 0's context with the trace clock
    // pinned to the global arrival: net.collective (and the rank.finish
    // instants below) stamp the barrier time, not a node's local clock.
    Cycles comm = 0;
    {
      Bound b(*w.groups.front(), barrier_time);
      comm = comm_model(app, total_ranks);
    }
    const Cycles release = barrier_time + comm;
    bool all_done = true;
    for (std::uint32_t n = 0; n < nodes; ++n) {
      Bound b(*w.groups[n], barrier_time);
      if (!w.groups[n]->job->external_release(release)) {
        all_done = false;
      }
    }
    if (all_done) {
      for (std::uint32_t n = 0; n < nodes; ++n) {
        Bound b(*w.groups[n], barrier_time);
        w.groups[n]->job->external_finish(release);
      }
    }
  }
  for (auto& g : w.groups) {
    HPMMAP_ASSERT(g->job->done(), "engines stopped before the job completed");
  }

  for (auto& g : w.groups) {
    Bound b(*g);
    for (auto& build : g->builds) {
      build->stop();
    }
  }

  // Collection: group-order merges everywhere, so the result is one
  // deterministic function of the per-node streams.
  NodeGroup& g0 = *w.groups.front();
  std::vector<workloads::MpiJob*> jobs;
  for (auto& g : w.groups) {
    jobs.push_back(&*g->job);
  }
  RunResult result = detail::collect_jobs(jobs, w.machine.clock_hz, job_start);
  if (sc.trace.on()) {
    {
      Bound b(g0);
      detail::end_tracing(result, sc.trace,
                          trace::Arg::u64("runtime_cycles", g0.job->runtime_cycles()));
    }
    for (std::size_t n = 1; n < nodes; ++n) {
      detail::take_ring(result, w.groups[n]->recorder);
    }
  }
  detail::fill_by_kind(result, sc.trace);
  detail::fill_node_stats(result, *g0.node);
  for (auto& g : w.groups) {
    result.events_fired += g->engine.events_fired();
  }
  for (auto& g : w.groups) {
    std::vector<introspect::TimeSeries> series = g->sampler->take();
    for (introspect::TimeSeries& s : series) {
      result.telemetry.push_back(std::move(s));
    }
  }
  if (sc.introspect.procfs_dump) {
    for (auto& g : w.groups) {
      result.procfs_text += introspect::procfs_dump(*g->node);
    }
  }
  for (auto& g : w.groups) {
    Bound b(*g);
    g->verify->finish(result, {&*g->node});
  }

  // The caller's registry: node counters summed in node order (the
  // totals one shared registry would hold); P² histograms cannot be
  // merged exactly, so each node's is copied under its own name.
  trace::MetricRegistry& caller = trace::metrics();
  for (std::size_t n = 0; n < w.groups.size(); ++n) {
    for (const auto& [name, value] : w.groups[n]->metrics.counters()) {
      caller.counter(name) += value;
    }
    for (const auto& [name, hist] : w.groups[n]->metrics.histograms()) {
      caller.histogram(name + ".node" + std::to_string(n)) = hist;
    }
  }
  return result;
}

} // namespace

RunResult run_cluster(const ClusterRunConfig& config) {
  return detail::run_straight<ClusterWorld>(config);
}

ClusterImage capture_scaling(const ScalingRunConfig& config) {
  return detail::capture<ClusterWorld>(ClusterRunConfig{config});
}

RunResult run_cluster(const ClusterRunConfig& config, const ClusterImage& image) {
  return detail::resume<ClusterWorld>(config, image);
}

} // namespace hpmmap::harness
