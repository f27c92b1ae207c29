// Multi-node scaling scenario (the paper's §IV-C testbed in miniature):
// an 8-node 1 GbE cluster where every node also runs a kernel build.
//
//   $ ./build/examples/scaling_study [app]
//
// Demonstrates noise amplification: per-node memory-management jitter
// compounds through the per-iteration barrier, so the HPMMAP-vs-THP gap
// *grows* with node count even though per-node contention is constant.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/batch.hpp"
#include "harness/table.hpp"

int main(int argc, char** argv) {
  using namespace hpmmap;

  const std::string app = argc > 1 ? argv[1] : "HPCCG";
  std::printf("Scaling study: %s, 4 ranks/node over 1GbE, profile C per node\n\n", app.c_str());

  harness::Table table({"Nodes", "Ranks", "Manager", "Runtime (s)", "Stdev (s)"});
  for (const std::uint32_t nodes : {1u, 2u, 4u}) {
    for (const harness::Manager manager :
         {harness::Manager::kThp, harness::Manager::kHpmmap}) {
      harness::ScalingRunConfig cfg;
      cfg.app = app;
      cfg.manager = manager;
      cfg.commodity = workloads::profile_c();
      cfg.nodes = nodes;
      cfg.ranks_per_node = 4;
      cfg.seed = 11;
      cfg.footprint_scale = 0.25;
      cfg.duration_scale = 0.2;
      const harness::SeriesPoint p =
          harness::run_trials(std::vector{harness::ClusterRunConfig{cfg}}, 3).front();
      table.add_row({std::to_string(nodes), std::to_string(nodes * 4),
                     std::string(name(manager)), harness::fixed(p.mean_seconds, 2),
                     harness::fixed(p.stdev_seconds, 2)});
    }
  }
  table.print();
  return 0;
}
