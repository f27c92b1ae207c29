// Quickstart: load the HPMMAP module on a simulated node, run the same
// HPC benchmark under Linux THP and under HPMMAP, and compare what the
// application experienced.
//
//   $ ./build/examples/quickstart [app] [cores]
//
// This is the 60-second version of the paper's Figure 7 story: HPMMAP
// registers the app's PID, interposes its address-space syscalls, backs
// every region with large pages at allocation time, and the app stops
// taking page faults.
#include <cstdio>
#include <string>

#include "common/flags.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"

int main(int argc, char** argv) {
  using namespace hpmmap;

  const std::string app = argc > 1 ? argv[1] : "HPCCG";
  const std::uint32_t cores = argc > 2 ? parse_count<std::uint32_t>("cores", argv[2], 1) : 4;

  std::printf("HPMMAP quickstart: %s on %u cores, one competing kernel build\n\n", app.c_str(),
              cores);

  harness::Table table({"Manager", "Runtime (s)", "Small faults", "Large faults",
                        "Merge-blocked", "Avg small (cyc)", "Avg large (cyc)"});

  for (const harness::Manager manager :
       {harness::Manager::kThp, harness::Manager::kHugetlbfs, harness::Manager::kHpmmap}) {
    harness::SingleNodeRunConfig cfg;
    cfg.app = app;
    cfg.manager = manager;
    cfg.commodity = workloads::profile_a(cores);
    cfg.app_cores = cores;
    cfg.seed = 2014;
    cfg.trace.categories = static_cast<std::uint32_t>(trace::Category::kFault);
    // Quick mode: quarter footprint, fifth duration — shapes survive.
    cfg.footprint_scale = 0.25;
    cfg.duration_scale = 0.2;

    const harness::RunResult r = harness::run_single_node(cfg);
    const auto k = [&](mm::FaultKind kind) { return r.by_kind(kind); };
    table.add_row({std::string(name(manager)), harness::fixed(r.runtime_seconds, 2),
                   harness::with_commas(k(mm::FaultKind::kSmall).total_faults),
                   harness::with_commas(k(mm::FaultKind::kLarge).total_faults),
                   harness::with_commas(k(mm::FaultKind::kMergeFollower).total_faults),
                   harness::with_commas(
                       static_cast<std::uint64_t>(k(mm::FaultKind::kSmall).avg_cycles)),
                   harness::with_commas(
                       static_cast<std::uint64_t>(k(mm::FaultKind::kLarge).avg_cycles))});
  }
  table.print();
  std::printf("\nHPMMAP's rows should show (near-)zero faults: memory is backed on request,\n"
              "so the fault handler never runs for the registered process (paper, Sec. III).\n");
  return 0;
}
