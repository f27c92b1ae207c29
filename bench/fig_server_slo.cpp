// Serving-tail figure: SLO violations under a competing kernel build.
//
// The HPC figures measure how much a co-located build stretches an
// application's runtime; this one measures what a datacenter operator
// actually pages on — how many requests of an open-loop serving
// workload blow their latency budget. The same Poisson schedule (common
// random numbers) replays against all three managers on the Dell R415
// model while profile A's kernel build churns beside it; violations are
// exact exceedance counts from the SLO accountant, not quantile
// estimates, so the headline is robust to P²'s bimodal-distribution
// error (the exact reservoir cross-check is reported alongside).
//
// Self-checks (exit 1 on failure):
//   - HPMMAP must finish with strictly fewer total SLO violations than
//     both Linux configurations — the paper's claim, and the regression
//     this figure exists to catch;
//   - one backend's trial loop is re-run serially and must match the
//     parallel run byte-for-byte (violations, completions, sheds, and
//     every tail estimate), the batch determinism contract.
//
// BENCH_server.json gates the violation improvement ratios through
// bench_diff like the other self-reports.
//
// Usage: fig_server_slo [--full] [--trials N] [--jobs N] [--out-dir DIR]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/batch.hpp"
#include "harness/result_fields.hpp"
#include "hw/machine.hpp"
#include "workloads/profiles.hpp"

namespace {

using namespace hpmmap;

constexpr double kRateRps = 80'000.0; // ~70% utilization across 4 workers
constexpr double kWindowSeconds = 10.0;

struct BackendOutcome {
  harness::Manager manager;
  std::uint64_t violations = 0; // summed over budgets and trials
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double exact_p99_us = 0.0;
  std::vector<std::uint64_t> per_budget;
};

harness::ServerRunConfig base_config(const bench::BenchOptions& opt) {
  harness::ServerRunConfig cfg;
  cfg.seed = 42;
  cfg.duration_scale = opt.duration_scale;
  cfg.arrival.shape = serving::ArrivalShape::kPoisson;
  cfg.arrival.mean_rps = kRateRps;
  cfg.arrival.duration_seconds = kWindowSeconds;
  cfg.commodity = workloads::profile_a(cfg.service.workers);
  const double clock_hz = hw::dell_r415().clock_hz;
  cfg.service.budgets = {
      serving::SloBudget{"lat<0.5ms", static_cast<Cycles>(clock_hz * 0.0005)},
      serving::SloBudget{"lat<2ms", static_cast<Cycles>(clock_hz * 0.002)},
  };
  return cfg;
}

BackendOutcome fold(harness::Manager manager,
                    const std::vector<harness::ServerRunResult>& trials) {
  BackendOutcome out;
  out.manager = manager;
  for (const harness::ServerRunResult& r : trials) {
    out.violations += r.slo_total;
    out.completed += r.server.completed;
    out.shed += r.server.shed_queue + r.server.shed_timeout;
    if (out.per_budget.size() < r.slo.size()) {
      out.per_budget.resize(r.slo.size(), 0);
    }
    for (std::size_t b = 0; b < r.slo.size(); ++b) {
      out.per_budget[b] += r.slo[b].violations;
    }
  }
  // Tails from the first trial (every trial's table lands in the CSV).
  if (!trials.empty()) {
    out.p50_us = trials[0].tail.p50_us;
    out.p99_us = trials[0].tail.p99_us;
    out.p999_us = trials[0].tail.p999_us;
    out.exact_p99_us = trials[0].tail.exact_p99_us;
  }
  return out;
}

} // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_mode(opt, "serving tail latency: SLO violations under a competing build");

  const harness::Manager managers[] = {harness::Manager::kThp, harness::Manager::kHugetlbfs,
                                       harness::Manager::kHpmmap};
  std::vector<BackendOutcome> outcomes;
  std::vector<harness::ServerRunResult> hpmmap_parallel;
  for (const harness::Manager m : managers) {
    harness::ServerRunConfig cfg = base_config(opt);
    cfg.manager = m;
    std::vector<harness::ServerRunResult> trials =
        harness::run_batch(harness::trial_configs(cfg, opt.trials), opt.jobs);
    outcomes.push_back(fold(m, trials));
    if (m == harness::Manager::kHpmmap) {
      hpmmap_parallel = std::move(trials);
    }
  }

  // Determinism cross-check: the HPMMAP trial loop again, strictly serial.
  harness::ServerRunConfig recheck = base_config(opt);
  recheck.manager = harness::Manager::kHpmmap;
  const bool deterministic = !harness::first_difference(
      hpmmap_parallel,
      harness::run_batch(harness::trial_configs(recheck, opt.trials), /*jobs=*/1));

  std::printf("%-18s %12s %10s %8s %8s %8s %10s %10s\n", "manager", "violations",
              "completed", "shed", "p50us", "p99us", "p99.9us", "xp99us");
  std::string csv = "manager,violations,completed,shed,p50_us,p99_us,p999_us,exact_p99_us\n";
  for (const BackendOutcome& o : outcomes) {
    std::printf("%-18s %12llu %10llu %8llu %8.0f %8.0f %10.0f %10.0f\n",
                std::string(name(o.manager)).c_str(),
                static_cast<unsigned long long>(o.violations),
                static_cast<unsigned long long>(o.completed),
                static_cast<unsigned long long>(o.shed), o.p50_us, o.p99_us, o.p999_us,
                o.exact_p99_us);
    csv += std::string(name(o.manager)) + "," + std::to_string(o.violations) + "," +
           std::to_string(o.completed) + "," + std::to_string(o.shed) + "," +
           std::to_string(o.p50_us) + "," + std::to_string(o.p99_us) + "," +
           std::to_string(o.p999_us) + "," + std::to_string(o.exact_p99_us) + "\n";
  }
  // CSV goes to --out-dir only, like the other figure benches; the
  // root mirror is reserved for committed BENCH_*.json baselines.
  const std::string csv_path = opt.out_dir + "/fig_server_slo.csv";
  if (std::FILE* f = std::fopen(csv_path.c_str(), "w")) {
    std::fputs(csv.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", csv_path.c_str());
  }

  const BackendOutcome& thp = outcomes[0];
  const BackendOutcome& hugetlbfs = outcomes[1];
  const BackendOutcome& hpmmap = outcomes[2];
  const auto ratio = [](std::uint64_t linux_v, std::uint64_t hpmmap_v) {
    return static_cast<double>(linux_v) / static_cast<double>(std::max<std::uint64_t>(hpmmap_v, 1));
  };
  const double vs_thp = ratio(thp.violations, hpmmap.violations);
  const double vs_hugetlbfs = ratio(hugetlbfs.violations, hpmmap.violations);
  std::printf("\nviolation ratio: THP/HPMMAP %.3f, HugeTLBfs/HPMMAP %.3f\n", vs_thp,
              vs_hugetlbfs);
  std::printf("determinism (serial vs parallel trial loop): %s\n",
              deterministic ? "match" : "MISMATCH");

  char body[1024];
  std::snprintf(body, sizeof(body),
                "{\n"
                "  \"bench\": \"server_slo\",\n"
                "  \"sweep\": \"poisson @ %.0f rps, 4 workers, profile A, %u trials\",\n"
                "  \"budgets_ms\": [0.5, 2.0],\n"
                "  \"thp_violations\": %llu,\n"
                "  \"hugetlbfs_violations\": %llu,\n"
                "  \"hpmmap_violations\": %llu,\n"
                "  \"thp_violation_improvement_ratio\": %.5f,\n"
                "  \"hugetlbfs_violation_improvement_ratio\": %.5f,\n"
                "  \"deterministic_match\": %s\n"
                "}\n",
                kRateRps, opt.trials, static_cast<unsigned long long>(thp.violations),
                static_cast<unsigned long long>(hugetlbfs.violations),
                static_cast<unsigned long long>(hpmmap.violations), vs_thp, vs_hugetlbfs,
                deterministic ? "true" : "false");
  if (!bench::write_bench_json(opt, "BENCH_server.json", body)) {
    return 1;
  }

  if (!deterministic) {
    std::fprintf(stderr, "FAIL: parallel trial loop diverged from the serial run\n");
    return 1;
  }
  if (hpmmap.violations >= thp.violations || hpmmap.violations >= hugetlbfs.violations) {
    std::fprintf(stderr,
                 "FAIL: HPMMAP must have strictly fewer SLO violations than both Linux "
                 "configs (hpmmap %llu, thp %llu, hugetlbfs %llu)\n",
                 static_cast<unsigned long long>(hpmmap.violations),
                 static_cast<unsigned long long>(thp.violations),
                 static_cast<unsigned long long>(hugetlbfs.violations));
    return 1;
  }
  return 0;
}
