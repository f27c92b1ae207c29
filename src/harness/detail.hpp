// Shared internals of the experiment harness run shapes: node
// configuration, §IV rank pinning, profile scaling, the trace and
// verification brackets every run shares, and the World sequences that
// drive every aged world. Not part of the public harness API; include
// from harness/*.cpp, and from tests that rebuild a harness world's boot
// config.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hpp"
#include "os/node.hpp"
#include "trace/trace.hpp"
#include "verify/audit.hpp"
#include "workloads/mpi_app.hpp"

namespace hpmmap::harness::detail {

[[nodiscard]] os::NodeConfig node_config_for(Manager manager, const hw::MachineSpec& machine,
                                             std::uint64_t offline_per_zone,
                                             std::uint64_t seed,
                                             const std::string& node_name);

[[nodiscard]] os::MmPolicy policy_for(Manager manager);

/// §IV pinning: half the ranks on each socket's cores; rank 0 alone
/// takes all memory from one zone.
[[nodiscard]] std::vector<workloads::RankPlacement> placements(os::Node& node,
                                                               std::uint32_t ranks);

[[nodiscard]] workloads::AppProfile scaled_profile(const std::string& app, double clock_hz,
                                                   double footprint_scale,
                                                   double duration_scale);

/// Size and arm this thread's flight recorder for one run. Tracing is
/// per-run-context state; runs bracket it, so this is enough.
void begin_tracing(const TraceConfig& cfg, std::uint64_t seed);

/// Fault kinds round-trip through event args as their display names.
[[nodiscard]] std::optional<mm::FaultKind> kind_from_label(std::string_view label);

/// Per-kind fault counts and means from the aggregate counters; the
/// spreads from the trace stream when the fault category was recorded
/// (result.events/app_pids must be filled), else 0.
void fill_by_kind(RunResult& result, const TraceConfig& trace_cfg);

/// THP/hugetlb/HPMMAP service counters from the run's first node.
void fill_node_stats(RunResult& result, os::Node& first_node);

/// The job's side of an hpc result: runtime, faults and pids from every
/// job (one per node, in node order).
[[nodiscard]] RunResult collect_jobs(const std::vector<workloads::MpiJob*>& jobs,
                                     double clock_hz, Cycles job_start);

/// Append `ring`'s events and overwrite count to `result`.
template <typename R>
void take_ring(R& result, const trace::FlightRecorder& ring) {
  const std::vector<trace::Event> events = ring.snapshot();
  result.events.insert(result.events.end(), events.begin(), events.end());
  result.trace_dropped += ring.dropped();
}

/// The trace tail every run shape shares: a run.end instant carrying
/// `arg`, tracing off, and this thread's ring appended to `result`.
template <typename R>
void end_tracing(R& result, const TraceConfig& cfg, const trace::Arg& arg) {
  if (!cfg.on()) {
    return;
  }
  trace::instant(trace::Category::kHarness, "run.end", 0, -1, {arg});
  trace::disable_all();
  take_ring(result, trace::recorder());
}

/// Audit totals under the first-failure rule: the first report is kept
/// unless it is clean and a failing one arrives, so a transient mid-run
/// violation is never hidden by a clean final audit. `into` is a run
/// result, or a VerifySession's own tally.
template <typename R>
void tally_audit(R& into, std::uint64_t checks, std::uint64_t violations,
                 const std::string& report) {
  if (into.audit_report.empty() || (violations > 0 && into.audit_violations == 0)) {
    into.audit_report = report;
  }
  into.audit_checks += checks;
  into.audit_violations += violations;
}

/// Arms a fault injector for one run; the destructor guarantees the next
/// run's node boots against a disarmed injector even if the run throws.
/// The injector is resolved through the thread-local accessor at
/// construction time, so a per-group override installed by the cluster
/// harness makes the session own that group's injector for its lifetime.
class VerifySession {
 public:
  VerifySession(const VerifyConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), inj_(&verify::injector()) {
    if (cfg_.inject.any()) {
      inj_->arm(cfg_.inject, seed);
    }
  }
  ~VerifySession() {
    inj_->set_on_fire(nullptr);
    inj_->disarm();
  }
  VerifySession(const VerifySession&) = delete;
  VerifySession& operator=(const VerifySession&) = delete;

  /// Install the debug-mode hook: audit `node` at every injection
  /// instant (every point fires before mutating state, so the sweep is
  /// over a consistent snapshot).
  void audit_on_fire(os::Node& node) {
    if (!cfg_.audit_on_injection || !cfg_.inject.any()) {
      return;
    }
    inj_->set_on_fire([this, &node](verify::InjectPoint) {
      verify::MmAuditor auditor(node);
      absorb(auditor.run());
    });
  }

  /// The end-of-run audit sweep over `nodes` (when configured), absorbed
  /// into this session's accounting.
  void run_final_audits(const std::vector<os::Node*>& nodes) {
    if (!cfg_.audit) {
      return;
    }
    for (os::Node* node : nodes) {
      verify::MmAuditor auditor(*node);
      absorb(auditor.run());
    }
  }

  /// End-of-run accounting added to `result`: injector counters, the
  /// final audit over `nodes`, and whatever the on-fire audits saw. The
  /// sessions of a cluster's nodes finish into one result in node order.
  /// Templated over the result shape, which all share these fields.
  template <typename R>
  void finish(R& result, const std::vector<os::Node*>& nodes) {
    if (cfg_.inject.any()) {
      for (std::size_t i = 0; i < verify::kInjectPointCount; ++i) {
        result.injected[i].calls += inj_->all_stats()[i].calls;
        result.injected[i].fired += inj_->all_stats()[i].fired;
      }
    }
    run_final_audits(nodes);
    tally_audit(result, tally_.audit_checks, tally_.audit_violations, tally_.audit_report);
  }

 private:
  void absorb(const verify::AuditReport& rep) {
    tally_audit(tally_, rep.checks, rep.violation_count(), rep.summary());
  }

  const VerifyConfig& cfg_;
  verify::FaultInjector* inj_;
  struct Tally {
    std::uint64_t audit_checks = 0;
    std::uint64_t audit_violations = 0;
    std::string audit_report;
  } tally_;
};

// --- the World concept -------------------------------------------------------
//
// Every run shape that ages a world (one node, a serving node, a cluster)
// is a World type:
//   - World(config, aged) boots the machine, arms verification and
//     constructs the commodity builds; `aged` = false skips boot-time
//     aging for a world that restore() will overwrite;
//   - age_to_warmup() runs the builds to the warmup quiesce point;
//   - capture() deep-copies the world there into an image, and
//     restore(image) overwrites a fresh world with one;
//   - measure(world), found by argument-dependent lookup, launches the
//     job and collects the result.
// These three sequences are the only ways a world is driven; a resumed
// run is byte-identical to the straight run of the same config.

template <typename World, typename Config>
auto run_straight(const Config& config) {
  World world(config, /*aged=*/true);
  world.age_to_warmup();
  return measure(world);
}

template <typename World, typename Config>
auto capture(const Config& config) {
  World world(config, /*aged=*/true);
  world.age_to_warmup();
  return world.capture();
}

template <typename World, typename Config, typename Image>
auto resume(const Config& config, const Image& image) {
  World world(config, /*aged=*/false);
  world.restore(image);
  return measure(world);
}

} // namespace hpmmap::harness::detail
