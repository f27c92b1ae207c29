// Figure 8 (paper, §IV-C): multi-node weak-scaling runtimes of HPCCG,
// miniFE and LAMMPS under commodity profiles C and D, HPMMAP vs
// Linux(THP), 4 ranks/node over 1/2/4/8 nodes of the Sandia 1 GbE
// cluster. HugeTLBfs is omitted, as in the paper.
//
// Paper headline (32 ranks): HPMMAP beats THP by 12%/9%/2% (profile C)
// and 11%/6%/4% (profile D) for HPCCG/miniFE/LAMMPS, with visibly
// smaller variance — single-node memory-management noise amplifies
// through the per-iteration barrier as node count grows.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/cluster.hpp"
#include "harness/table.hpp"

int main(int argc, char** argv) {
  using namespace hpmmap;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_mode(opt, "Figure 8: scaling runtimes (profiles C and D, 1GbE cluster)");

  const char* apps[] = {"HPCCG", "miniFE", "LAMMPS"};
  const std::uint32_t node_counts[] = {1, 2, 4, 8};

  harness::Table table(
      {"App", "Profile", "Nodes", "Ranks", "Manager", "Mean (s)", "Stdev (s)"});

  // Enumerate the full sweep first, fan every (cell, trial) run across
  // the batch runner, then fold the results in enumeration order — the
  // printed table is byte-identical to the serial sweep for any --jobs.
  const std::uint32_t trials = opt.full ? opt.trials : 2;
  std::vector<harness::ClusterRunConfig> cfgs;
  for (const char* app : apps) {
    for (int prof = 0; prof < 2; ++prof) {
      for (const std::uint32_t nodes : node_counts) {
        for (const harness::Manager mgr :
             {harness::Manager::kHpmmap, harness::Manager::kThp}) {
          harness::ScalingRunConfig cfg;
          cfg.app = app;
          cfg.manager = mgr;
          cfg.commodity = prof == 0 ? workloads::profile_c() : workloads::profile_d();
          cfg.nodes = nodes;
          cfg.ranks_per_node = 4;
          // Shared across apps: the three apps at one (profile, nodes,
          // manager) cell resume from a single aged-cluster capture.
          cfg.seed = 500 + static_cast<std::uint64_t>(prof) * 29 + nodes;
          cfg.footprint_scale = 1.0; // pressure needs real footprints
          cfg.duration_scale = opt.full ? 1.0 : 0.05;
          cfgs.push_back({cfg});
        }
      }
    }
  }
  const std::vector<harness::SeriesPoint> points =
      harness::run_trials_snapshotted(cfgs, trials, opt.jobs);

  std::size_t ci = 0;
  for (const char* app : apps) {
    for (int prof = 0; prof < 2; ++prof) {
      double ratio_at_32 = 0.0;
      for (const std::uint32_t nodes : node_counts) {
        double hpmmap_mean = 0.0;
        for (const harness::Manager mgr :
             {harness::Manager::kHpmmap, harness::Manager::kThp}) {
          const harness::SeriesPoint& p = points[ci++];
          if (mgr == harness::Manager::kHpmmap) {
            hpmmap_mean = p.mean_seconds;
          } else if (nodes == 8) {
            ratio_at_32 = p.mean_seconds / hpmmap_mean;
          }
          table.add_row({app, prof == 0 ? "C" : "D", std::to_string(nodes),
                         std::to_string(nodes * 4), std::string(name(mgr)),
                         harness::fixed(p.mean_seconds, 2),
                         harness::fixed(p.stdev_seconds, 2)});
        }
        std::printf(".");
        std::fflush(stdout);
      }
      std::printf(" %s profile %c @32 ranks: THP/HPMMAP = %.3f\n", app, 'C' + prof,
                  ratio_at_32);
    }
  }
  std::printf("\n");
  table.print();
  table.write_csv(opt.out_dir + "/fig8_scaling.csv");
  std::printf("\nPaper shape check (32 ranks): HPMMAP ahead of THP by ~12%%/9%%/2%% (C) and\n"
              "~11%%/6%%/4%% (D) for HPCCG/miniFE/LAMMPS; the gap widens with node count.\n");
  return 0;
}
