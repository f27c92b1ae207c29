// Consolidated-node scenario: the situation the paper's introduction
// motivates — an HPC application sharing a node with progressively more
// commodity work (in-situ analytics, cloud co-tenants).
//
//   $ ./build/examples/consolidated_node
//
// Sweeps the competing kernel-build intensity from none to profile B and
// shows how each memory manager's runtime and variance respond. The
// takeaway mirrors §IV-B: Linux degrades and grows noisy; HPMMAP's
// isolation keeps both the mean and the spread nearly flat.
#include <cstdio>

#include "harness/batch.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"

int main() {
  using namespace hpmmap;

  constexpr std::uint32_t kCores = 4;
  constexpr std::uint32_t kTrials = 3;
  std::printf("Consolidation sweep: HPCCG on %u cores vs growing commodity load\n\n", kCores);

  struct Level {
    const char* label;
    workloads::CommodityProfile profile;
  };
  const Level levels[] = {
      {"idle node", workloads::no_competition()},
      {"1 kernel build (profile A)", workloads::profile_a(kCores)},
      {"2 kernel builds (profile B)", workloads::profile_b(kCores)},
  };

  harness::Table table({"Competing load", "Manager", "Runtime (s)", "Stdev (s)"});
  for (const Level& level : levels) {
    for (const harness::Manager manager :
         {harness::Manager::kThp, harness::Manager::kHugetlbfs, harness::Manager::kHpmmap}) {
      harness::SingleNodeRunConfig cfg;
      cfg.app = "HPCCG";
      cfg.manager = manager;
      cfg.commodity = level.profile;
      cfg.app_cores = kCores;
      cfg.seed = 7;
      cfg.footprint_scale = 0.25;
      cfg.duration_scale = 0.2;
      const harness::SeriesPoint p = harness::run_trials(cfg, kTrials);
      table.add_row({level.label, std::string(name(manager)),
                     harness::fixed(p.mean_seconds, 2), harness::fixed(p.stdev_seconds, 2)});
    }
  }
  table.print();
  return 0;
}
