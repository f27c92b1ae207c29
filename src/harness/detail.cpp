#include "harness/detail.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace hpmmap::harness::detail {

os::NodeConfig node_config_for(Manager manager, const hw::MachineSpec& machine,
                               std::uint64_t offline_per_zone, std::uint64_t seed,
                               const std::string& node_name) {
  os::NodeConfig cfg;
  cfg.machine = machine;
  cfg.seed = seed;
  cfg.name = node_name;
  switch (manager) {
    case Manager::kThp:
      cfg.thp_enabled = true;
      break;
    case Manager::kHugetlbfs:
      // §IV: "THP was disabled and Linux had no large page support for
      // the commodity workload".
      cfg.thp_enabled = false;
      cfg.hugetlb_pool_per_zone = offline_per_zone;
      break;
    case Manager::kHpmmap: {
      // §IV: "HPMMAP managed the HPC workload while THP managed the
      // commodity workload".
      cfg.thp_enabled = true;
      core::ModuleConfig mod;
      mod.offline_bytes_per_zone = offline_per_zone;
      cfg.hpmmap = mod;
      break;
    }
  }
  return cfg;
}

os::MmPolicy policy_for(Manager manager) {
  switch (manager) {
    case Manager::kThp:       return os::MmPolicy::kLinuxThp;
    case Manager::kHugetlbfs: return os::MmPolicy::kHugetlbfs;
    case Manager::kHpmmap:    return os::MmPolicy::kHpmmap;
  }
  return os::MmPolicy::kLinuxThp;
}

std::vector<workloads::RankPlacement> placements(os::Node& node, std::uint32_t ranks) {
  std::vector<workloads::RankPlacement> out;
  const std::uint32_t per_socket = node.spec().cores_per_socket;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    workloads::RankPlacement p;
    p.node = &node;
    const bool second_socket = r >= (ranks + 1) / 2;
    const std::uint32_t idx = second_socket ? r - (ranks + 1) / 2 : r;
    HPMMAP_ASSERT(idx < per_socket, "more ranks than cores per socket half");
    p.core = static_cast<std::int32_t>(second_socket ? per_socket + idx : idx);
    p.home_zone = second_socket ? 1 : 0;
    p.zone_policy = ranks == 1 ? mm::AddressSpace::ZonePolicy::kSingle
                               : mm::AddressSpace::ZonePolicy::kInterleave;
    out.push_back(p);
  }
  return out;
}

workloads::AppProfile scaled_profile(const std::string& app, double clock_hz,
                                     double footprint_scale, double duration_scale) {
  workloads::AppProfile prof = workloads::profile_by_name(app, clock_hz);
  prof.bytes_per_rank = align_up(
      static_cast<std::uint64_t>(static_cast<double>(prof.bytes_per_rank) * footprint_scale),
      kLargePageSize);
  prof.misc_bytes = align_up(
      static_cast<std::uint64_t>(static_cast<double>(prof.misc_bytes) * footprint_scale),
      kSmallPageSize);
  prof.iterations = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(prof.iterations) * duration_scale));
  return prof;
}

void begin_tracing(const TraceConfig& cfg, std::uint64_t seed) {
  // Span stamping is (re)set even when tracing is off so a previous
  // run's flag never leaks into this run context.
  trace::enable_spans(cfg.on() && cfg.spans);
  if (!cfg.on()) {
    return;
  }
  trace::recorder().set_capacity(cfg.capacity);
  trace::metrics().reset();
  trace::enable(cfg.categories);
  trace::instant(trace::Category::kHarness, "run.start", 0, -1,
                 {trace::Arg::u64("seed", seed)});
}

std::optional<mm::FaultKind> kind_from_label(std::string_view label) {
  for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
    const auto kind = static_cast<mm::FaultKind>(k);
    if (label == mm::name(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

void fill_by_kind(RunResult& result, const TraceConfig& trace_cfg) {
  // Counts and means come from the kernel's counters, traced or not, so
  // tracing cannot move them; a spread needs per-fault samples, which are
  // reconstructed from the trace stream when the fault category was
  // recorded.
  for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
    FaultKindSummary& s = result.by_kind_summaries[k];
    s.total_faults = result.faults.count[k];
    s.avg_cycles = s.total_faults > 0 ? static_cast<double>(result.faults.total_cycles[k]) /
                                            static_cast<double>(s.total_faults)
                                      : 0.0;
  }
  if ((trace_cfg.categories & static_cast<std::uint32_t>(trace::Category::kFault)) == 0) {
    return;
  }
  std::array<RunningStats, mm::kFaultKindCount> stats;
  for (const FaultSample& s : app_fault_samples(result)) {
    stats[static_cast<std::size_t>(s.kind)].add(static_cast<double>(s.cost));
  }
  for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
    result.by_kind_summaries[k].stdev_cycles = stats[k].stdev();
  }
}

void fill_node_stats(RunResult& result, os::Node& first_node) {
  if (first_node.thp() != nullptr) {
    result.thp_merges = first_node.thp()->stats().merges_completed;
    result.thp_fault_fallbacks = first_node.thp()->stats().fault_huge_fallback;
    result.thp_merges_aborted = first_node.thp()->stats().merges_aborted;
  }
  if (first_node.hugetlb() != nullptr) {
    result.hugetlb_pool_exhausted = first_node.hugetlb()->stats().pool_exhausted;
  }
  if (first_node.hpmmap_module() != nullptr) {
    result.hpmmap_spurious_faults = first_node.hpmmap_module()->stats().spurious_faults;
  }
}

RunResult collect_jobs(const std::vector<workloads::MpiJob*>& jobs, double clock_hz,
                       Cycles job_start) {
  RunResult result;
  result.runtime_seconds = jobs.front()->runtime_seconds();
  result.clock_hz = clock_hz;
  result.trace_t0 = job_start;
  for (const workloads::MpiJob* job : jobs) {
    result.faults.add(job->aggregate_faults());
    for (std::size_t r = 0; r < job->rank_count(); ++r) {
      result.app_pids.push_back(job->rank_process(r).pid());
    }
  }
  return result;
}

} // namespace hpmmap::harness::detail
