// Shared internals of the experiment harness run shapes.
//
// Everything here used to live in experiment.cpp's anonymous namespace;
// the PDES cluster harness (harness/cluster.cpp) builds per-node worlds
// out of the same pieces — node configuration, §IV rank pinning, profile
// scaling, trace bracketing, result collection, verification session —
// so they moved behind this internal header. Not part of the public
// harness API; include from harness/*.cpp, and from tests that rebuild a
// harness world's boot config.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hpp"
#include "os/node.hpp"
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

/// Per-kind fault distributions from the trace stream when the fault
/// category was recorded (result.events/app_pids must be filled), else
/// from the aggregate counters.
void fill_by_kind(RunResult& result, const TraceConfig& trace_cfg);

/// THP/hugetlb/HPMMAP service counters from the run's first node.
void fill_node_stats(RunResult& result, os::Node& first_node);

/// Full collection for a single-node job: runtime, faults, pids, run.end
/// + trace snapshot, by-kind summaries, node stats.
[[nodiscard]] RunResult collect(workloads::MpiJob& job, os::Node& first_node,
                                const TraceConfig& trace_cfg, Cycles job_start,
                                double clock_hz);

/// What one trial contributes to its SeriesPoint.
struct TrialOutcome {
  double runtime_seconds = 0.0;
  std::uint64_t events_fired = 0;
  mm::FaultStats faults{};
};

[[nodiscard]] TrialOutcome outcome_of(const RunResult& r);

/// Fold one config's outcomes, in trial order, into its point: every
/// trial loop folds through here, so equal outcomes give equal bits.
[[nodiscard]] SeriesPoint fold_trials(std::span<const TrialOutcome> outcomes);

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

  [[nodiscard]] bool injecting() const noexcept { return cfg_.inject.any(); }
  [[nodiscard]] const std::array<verify::PointStats, verify::kInjectPointCount>&
  injected_stats() const noexcept {
    return inj_->all_stats();
  }
  [[nodiscard]] std::uint64_t checks() const noexcept { return checks_; }
  [[nodiscard]] std::uint64_t violations() const noexcept { return violations_; }
  [[nodiscard]] const std::string& report() const noexcept { return report_; }
  [[nodiscard]] bool clean() const noexcept { return clean_; }

  /// End-of-run accounting into `result`: injector counters, the final
  /// audit over every node, and whatever the on-fire audits saw.
  /// Templated over the result shape — RunResult and ServerRunResult
  /// share the verification fields.
  template <typename R>
  void finish(R& result, const std::vector<os::Node*>& nodes) {
    if (cfg_.inject.any()) {
      result.injected = inj_->all_stats();
    }
    run_final_audits(nodes);
    result.audit_checks = checks_;
    result.audit_violations = violations_;
    result.audit_report = std::move(report_);
  }

 private:
  void absorb(const verify::AuditReport& rep) {
    checks_ += rep.checks;
    violations_ += rep.violation_count();
    // Keep the first failing summary (a transient mid-run violation must
    // not be hidden by a clean final audit), else the latest clean one.
    if (report_.empty() || (!rep.ok() && clean_)) {
      report_ = rep.summary();
      clean_ = rep.ok();
    }
  }

  const VerifyConfig& cfg_;
  verify::FaultInjector* inj_;
  std::uint64_t checks_ = 0;
  std::uint64_t violations_ = 0;
  std::string report_;
  bool clean_ = true;
};

} // namespace hpmmap::harness::detail
