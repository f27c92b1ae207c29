// Shared plumbing for the figure-regeneration benchmarks.
//
// Every binary runs in a reduced "quick" scale by default so the full
// suite completes in minutes; pass --full to run at the paper's scale
// (12 GB footprints, 10 trials). CSV copies of every table land in
// ./results/ for replotting.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/flags.hpp"
#include "harness/batch.hpp"

namespace hpmmap::bench {

struct BenchOptions {
  bool full = false;
  std::uint32_t trials = 3;
  double footprint_scale = 0.15;
  double duration_scale = 0.1;
  /// Worker threads for the batch runner; 0 = hardware concurrency.
  /// Results are byte-identical for every value (merged in seed order).
  unsigned jobs = 0;
  std::string out_dir = "results";
};

inline void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out, "usage: %s [--full] [--trials N] [--jobs N] [--out-dir DIR]\n", argv0);
}

/// Exits 0 on --help, and 1 with the usage line on a flag it does not
/// know or one missing its value.
inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      opt.full = true;
      opt.trials = 10; // §IV: "average and standard deviation of 10 runs"
      opt.footprint_scale = 1.0;
      opt.duration_scale = 1.0;
    } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      opt.trials = parse_count("--trials", argv[++i], 1);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      opt.jobs = parse_count("--jobs", argv[++i], 0);
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      opt.out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(stdout, argv[0]);
      std::printf("  --full   paper scale (12 GB footprints, 10 trials); default is a\n"
                  "           reduced scale that preserves the figure's shape\n"
                  "  --jobs   parallel simulation workers (default: all hardware\n"
                  "           threads; output is identical for any value)\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown flag or missing value '%s'\n", argv[0], argv[i]);
      print_usage(stderr, argv[0]);
      std::exit(1);
    }
  }
  ::mkdir(opt.out_dir.c_str(), 0755);
  harness::set_default_jobs(opt.jobs);
  return opt;
}

/// The `"env"` object every BENCH_*.json carries: absolute host numbers
/// (events/sec, wall seconds) mean nothing without the compiler, build
/// type and thread count that produced them.
inline std::string env_stamp() {
  return std::string("  \"env\": {\n") + "    \"compiler\": \"" +
#if defined(__clang__)
         "clang "
#else
         "gcc "
#endif
         __VERSION__ + "\",\n" + "    \"build_type\": \"" + HPMMAP_BENCH_BUILD_TYPE +
         "\",\n" + "    \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + "\n  },\n";
}

/// Write a BENCH_*.json self-report into --out-dir and mirror it at the
/// current directory (the repo root in CI), which is where the committed
/// regression baselines live and where the CI gate and bench_diff read.
/// `body` is one JSON object; the environment stamp becomes its first key.
inline bool write_bench_json(const BenchOptions& opt, const std::string& name,
                             std::string body) {
  HPMMAP_ASSERT(body.starts_with("{\n"), "bench JSON body must open with {\\n");
  body.insert(2, env_stamp());
  const auto write = [&](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fputs(body.c_str(), f);
    std::fclose(f);
    return true;
  };
  if (!write(opt.out_dir + "/" + name)) {
    return false;
  }
  if (opt.out_dir != "." && !write(name)) {
    return false;
  }
  std::printf("wrote %s/%s (mirrored at ./%s)\n", opt.out_dir.c_str(), name.c_str(),
              name.c_str());
  return true;
}

/// A serial-vs-parallel speedup measures parallelism only with >= 2
/// workers and at least that many hardware threads; benches record any
/// other as `null`, which bench_diff neither compares nor gates.
inline bool speedup_measured(unsigned workers) {
  return workers >= 2 && harness::hardware_jobs() >= workers;
}

/// Host-time benches time their loop this many times after a warmup and
/// report the median, with the min and max beside it. The median has to
/// span seconds of runs: on a shared 4-vCPU VM the host's speed drifts
/// in phases of seconds (one storm run read 6-13M faults/s within a
/// minute), and medians of 5 or 15 runs of one binary differed by up to
/// 1.8x, past the 25% the same-runner A/B gate allows.
inline constexpr int kTimedRuns = 101;

struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline Spread spread(std::vector<double> v) {
  HPMMAP_ASSERT(!v.empty(), "spread of no samples");
  std::sort(v.begin(), v.end());
  return {v[v.size() / 2], v.front(), v.back()};
}

inline void print_mode(const BenchOptions& opt, const char* what) {
  std::printf("== %s ==\n", what);
  std::printf("mode: %s (footprint x%.2f, duration x%.2f, %u trials, %u jobs)\n\n",
              opt.full ? "FULL (paper scale)" : "quick", opt.footprint_scale,
              opt.duration_scale, opt.trials, harness::default_jobs());
}

} // namespace hpmmap::bench
