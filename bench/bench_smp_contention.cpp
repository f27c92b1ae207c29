// SMP fault-path contention study (DESIGN.md §14): aggregate demand-
// fault throughput versus core count for the three memory managers.
//
//   Linux-1999   coarse PT lock, no pcp lists, per-page TLB IPIs
//   Linux-today  pcp lists + sharded PT locks + batched shootdowns
//   HPMMAP       module-managed, no shared Linux lock at all (§III-A)
//
// Every worker core runs the same mmap/touch/munmap storm as an
// interleaved actor on one engine, so the curves come out of *executed*
// lock acquisitions (mmap_sem, PT shards, zone locks, IPI stalls) — not
// analytic contention formulas. The paper's scalability argument is the
// widening HPMMAP-to-Linux gap (Fig. 7/8 trend); the bench gates on
// that gap growing strictly with core count, on Linux-today landing
// strictly between the 1999 kernel and HPMMAP once contention binds
// (>= 16 cores), and on each modern feature individually mattering
// (disabling it at 16/64 cores must cost throughput).
//
// Self-report: BENCH_smp.json (gated in CI by bench_diff with a
// per-bench threshold; see .github/workflows).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/batch.hpp"
#include "harness/result_fields.hpp"

namespace {

using namespace hpmmap;
using harness::SmpRunConfig;
using harness::SmpRunResult;
using harness::SmpVariant;

constexpr std::uint32_t kCores[] = {1, 4, 16, 64, 256};
constexpr std::uint32_t kAblationCores[] = {16, 64};
constexpr SmpVariant kVariants[] = {SmpVariant::kLinux1999, SmpVariant::kLinuxToday,
                                    SmpVariant::kHpmmap};

struct Ablation {
  const char* label;
  const char* json_key; // modern / ablated, gated by bench_diff
  std::optional<bool> pcp;
  std::optional<bool> sharded;
  std::optional<bool> batched;
};

constexpr Ablation kAblations[] = {
    {"no pcp lists", "pcp", false, std::nullopt, std::nullopt},
    {"no PT sharding", "pt_sharding", std::nullopt, false, std::nullopt},
    {"no IPI batching", "ipi_batching", std::nullopt, std::nullopt, false},
};

} // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_mode(opt, "SMP fault-path contention: faults/s vs cores (DESIGN.md §14)");

  const std::uint64_t rounds = opt.full ? 8 : 3;
  const std::uint64_t slab = opt.full ? 4 * MiB : 2 * MiB;

  // One batch for the whole grid: 5 core counts x 3 managers, plus the
  // modern-kernel ablations at the two contended core counts.
  std::vector<SmpRunConfig> grid;
  for (const std::uint32_t cores : kCores) {
    for (const SmpVariant v : kVariants) {
      SmpRunConfig c;
      c.variant = v;
      c.cores = cores;
      c.rounds = rounds;
      c.slab_bytes = slab;
      grid.push_back(c);
    }
  }
  const std::size_t ablation_base = grid.size();
  for (const std::uint32_t cores : kAblationCores) {
    for (const Ablation& a : kAblations) {
      SmpRunConfig c;
      c.variant = SmpVariant::kLinuxToday;
      c.cores = cores;
      c.rounds = rounds;
      c.slab_bytes = slab;
      c.pcp = a.pcp;
      c.sharded_pt_locks = a.sharded;
      c.batched_shootdowns = a.batched;
      grid.push_back(c);
    }
  }
  const std::vector<SmpRunResult> runs = harness::run_batch(grid);

  const auto at = [&](std::size_t core_idx, std::size_t variant_idx) -> const SmpRunResult& {
    return runs[core_idx * std::size(kVariants) + variant_idx];
  };

  // --- throughput table -------------------------------------------------
  std::printf("%-14s", "faults/s (M)");
  for (const std::uint32_t cores : kCores) {
    std::printf(" %9u", cores);
  }
  std::printf("\n");
  for (std::size_t vi = 0; vi < std::size(kVariants); ++vi) {
    std::printf("%-14s", std::string(name(kVariants[vi])).c_str());
    for (std::size_t ci = 0; ci < std::size(kCores); ++ci) {
      std::printf(" %9.3f", at(ci, vi).faults_per_sec / 1e6);
    }
    std::printf("\n");
  }
  std::printf("%-14s", "HPMMAP/stock");
  double ratios[std::size(kCores)];
  for (std::size_t ci = 0; ci < std::size(kCores); ++ci) {
    ratios[ci] = at(ci, 2).faults_per_sec / at(ci, 0).faults_per_sec;
    std::printf(" %8.2fx", ratios[ci]);
  }
  std::printf("\n\n");

  // --- lock-wait breakdown (executed, not costed) -----------------------
  std::printf("lock-wait share of span (Linux-today):\n");
  std::printf("%-10s %12s %12s %12s %12s %10s\n", "cores", "mmap_sem", "pt_lock",
              "zone_lock", "ipi_stall", "pcp hit%");
  for (std::size_t ci = 0; ci < std::size(kCores); ++ci) {
    const SmpRunResult& r = at(ci, 1);
    const double span = r.seconds * r.clock_hz * r.cores;
    const auto share = [&](Cycles w) { return span > 0 ? 100.0 * double(w) / span : 0.0; };
    const std::uint64_t pcp_total = r.smp.pcp_hits + r.smp.pcp_misses;
    std::printf("%-10u %11.2f%% %11.2f%% %11.2f%% %11.2f%% %9.1f%%\n", r.cores,
                share(r.smp.mmap_sem_wait), share(r.smp.pt_lock_wait),
                share(r.smp.zone_lock_wait), share(r.smp.ipi_stall),
                pcp_total > 0 ? 100.0 * double(r.smp.pcp_hits) / double(pcp_total) : 0.0);
  }
  std::printf("\n");

  // --- ablations --------------------------------------------------------
  std::printf("modern-kernel ablations (faults/s vs full Linux-today):\n");
  double ablation_ratio[std::size(kAblationCores)][std::size(kAblations)];
  bool ablations_bind = true;
  for (std::size_t gi = 0; gi < std::size(kAblationCores); ++gi) {
    const std::size_t ci = kAblationCores[gi] == 16 ? 2 : 3;
    const double modern = at(ci, 1).faults_per_sec;
    for (std::size_t ai = 0; ai < std::size(kAblations); ++ai) {
      const SmpRunResult& r = runs[ablation_base + gi * std::size(kAblations) + ai];
      ablation_ratio[gi][ai] = modern / r.faults_per_sec;
      ablations_bind = ablations_bind && r.faults_per_sec < modern;
      std::printf("  %3u cores  %-16s %9.3f M/s  (full/ablated %.2fx)\n", r.cores,
                  kAblations[ai].label, r.faults_per_sec / 1e6, ablation_ratio[gi][ai]);
    }
  }
  std::printf("\n");

  // --- CSV --------------------------------------------------------------
  {
    const std::string path = opt.out_dir + "/smp_contention.csv";
    std::FILE* csv = std::fopen(path.c_str(), "w");
    if (csv != nullptr) {
      std::fprintf(csv,
                   "variant,cores,pages,seconds,faults_per_sec,mmap_sem_wait,pt_lock_wait,"
                   "zone_lock_wait,ipi_stall,pcp_hits,pcp_misses,shootdown_ipis,"
                   "shootdown_pages\n");
      for (std::size_t i = 0; i < runs.size(); ++i) {
        const SmpRunResult& r = runs[i];
        std::string label{name(grid[i].variant)};
        if (i >= ablation_base) {
          const std::size_t ai = (i - ablation_base) % std::size(kAblations);
          label += std::string("-no-") + kAblations[ai].json_key;
        }
        std::fprintf(csv, "%s,%u,%llu,%.9f,%.3f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu\n",
                     label.c_str(), r.cores, static_cast<unsigned long long>(r.pages_touched), r.seconds,
                     r.faults_per_sec, static_cast<unsigned long long>(r.smp.mmap_sem_wait),
                     static_cast<unsigned long long>(r.smp.pt_lock_wait),
                     static_cast<unsigned long long>(r.smp.zone_lock_wait),
                     static_cast<unsigned long long>(r.smp.ipi_stall),
                     static_cast<unsigned long long>(r.smp.pcp_hits),
                     static_cast<unsigned long long>(r.smp.pcp_misses),
                     static_cast<unsigned long long>(r.smp.shootdown_ipis),
                     static_cast<unsigned long long>(r.smp.shootdown_pages));
      }
      std::fclose(csv);
      std::printf("wrote %s\n", path.c_str());
    }
  }

  // --- determinism recheck ----------------------------------------------
  // The batch above ran on default_jobs() workers; replay the contended
  // column serially and require bit-identical results.
  bool deterministic = true;
  for (const SmpVariant v : kVariants) {
    SmpRunConfig c;
    c.variant = v;
    c.cores = 16;
    c.rounds = rounds;
    c.slab_bytes = slab;
    const SmpRunResult serial = harness::run_smp(c);
    const std::size_t vi = v == SmpVariant::kLinux1999 ? 0 : v == SmpVariant::kLinuxToday ? 1 : 2;
    deterministic = deterministic && !harness::first_difference(serial, at(2, vi));
  }
  std::printf("determinism (parallel batch vs serial replay @16 cores): %s\n\n",
              deterministic ? "MATCH" : "MISMATCH");

  // --- gates ------------------------------------------------------------
  bool pass = deterministic;
  for (std::size_t ci = 1; ci < std::size(kCores); ++ci) {
    if (!(ratios[ci] > ratios[ci - 1])) {
      std::printf("GATE FAIL: HPMMAP/stock ratio not strictly increasing at %u cores "
                  "(%.3f -> %.3f)\n",
                  kCores[ci], ratios[ci - 1], ratios[ci]);
      pass = false;
    }
  }
  for (std::size_t ci = 2; ci < std::size(kCores); ++ci) {
    const double stock = at(ci, 0).faults_per_sec;
    const double modern = at(ci, 1).faults_per_sec;
    const double hpm = at(ci, 2).faults_per_sec;
    if (!(stock < modern && modern < hpm)) {
      std::printf("GATE FAIL: at %u cores expected stock < modern < HPMMAP "
                  "(%.0f / %.0f / %.0f)\n",
                  kCores[ci], stock, modern, hpm);
      pass = false;
    }
  }
  if (!ablations_bind) {
    std::printf("GATE FAIL: an ablated modern kernel matched or beat the full one\n");
    pass = false;
  }
  for (std::size_t ci = 1; ci < std::size(kCores); ++ci) {
    if (at(ci, 1).smp.total_lock_wait() == 0 || at(ci, 0).smp.total_lock_wait() == 0) {
      std::printf("GATE FAIL: no executed lock wait recorded at %u cores\n", kCores[ci]);
      pass = false;
    }
  }

  // --- self-report ------------------------------------------------------
  std::string json = "{\n  \"bench\": \"smp_contention\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"sweep\": \"%llu rounds x %llu KiB slab per core, cores 1..256\",\n",
                static_cast<unsigned long long>(rounds), static_cast<unsigned long long>(slab / 1024));
  json += buf;
  json += "  \"cores\": [1, 4, 16, 64, 256],\n";
  for (std::size_t vi = 0; vi < std::size(kVariants); ++vi) {
    const char* key = vi == 0 ? "stock_faults_per_sec"
                              : vi == 1 ? "modern_faults_per_sec" : "hpmmap_faults_per_sec";
    json += std::string("  \"") + key + "\": [";
    for (std::size_t ci = 0; ci < std::size(kCores); ++ci) {
      std::snprintf(buf, sizeof(buf), "%s%.1f", ci == 0 ? "" : ", ",
                    at(ci, vi).faults_per_sec);
      json += buf;
    }
    json += "],\n";
  }
  for (std::size_t ci = 0; ci < std::size(kCores); ++ci) {
    std::snprintf(buf, sizeof(buf), "  \"hpmmap_vs_stock_c%u_improvement_ratio\": %.5f,\n",
                  kCores[ci], ratios[ci]);
    json += buf;
  }
  std::snprintf(buf, sizeof(buf), "  \"modern_vs_stock_c64_improvement_ratio\": %.5f,\n",
                at(3, 1).faults_per_sec / at(3, 0).faults_per_sec);
  json += buf;
  for (std::size_t ai = 0; ai < std::size(kAblations); ++ai) {
    std::snprintf(buf, sizeof(buf), "  \"%s_c64_improvement_ratio\": %.5f,\n",
                  kAblations[ai].json_key, ablation_ratio[1][ai]);
    json += buf;
  }
  json += std::string("  \"deterministic_match\": ") + (deterministic ? "true" : "false") +
          "\n}\n";
  if (!bench::write_bench_json(opt, "BENCH_smp.json", json)) {
    return 1;
  }

  std::printf("bench_smp_contention: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
