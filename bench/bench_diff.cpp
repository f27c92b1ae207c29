// bench_diff: compare BENCH_*.json self-reports and fail on regression.
//
//   bench_diff [--threshold F] [--threshold-for NAME=F] BASELINE CURRENT
//
// BASELINE and CURRENT are either two JSON files or two directories; in
// directory mode every BENCH_*.json present in BASELINE is diffed
// against the file of the same name in CURRENT (a missing current file
// is a failure — a bench that stopped reporting is a regression too).
// Either side may be a comma-separated list of rounds (files, or
// directories) of the same bench: its numbers are then the per-key
// median across the rounds (introspect::median_of), so CI can gate host
// rates measured in alternating base/change rounds.
//
// Gated metrics (keys ending in improvement_ratio / speedup, or the
// --gate list) fail the run when current < baseline * (1 - threshold).
// The default improvement_ratio keys are ratios of simulated time, so
// they reproduce on any host. Absolute throughput numbers are reported
// but not gated by default, since they measure the runner as much as the
// code; CI gates them with --gate only between two builds run on the
// same runner. Each threshold must be a number in [0, 1). Exit 0 = pass,
// 1 = regression, 2 = usage/parse error.
//
// --threshold-for overrides the threshold for one file name (repeatable),
// so a noisy bench can run with a looser gate without loosening the rest:
//
//   bench_diff --threshold-for BENCH_smp.json=0.25 baseline/ current/
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <utility>
#include <vector>

#include "introspect/bench_diff.hpp"

namespace {

using namespace hpmmap;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_diff [--threshold F] [--threshold-for NAME=F]\n"
               "                  [--gate KEY[,KEY...]] BASELINE CURRENT\n"
               "  BASELINE/CURRENT: two BENCH_*.json files, or two directories\n"
               "                    (every BENCH_*.json in BASELINE is compared);\n"
               "                    R1,R2,... takes the per-key median of rounds\n"
               "  --threshold F     allowed relative drop in gated metrics, in [0, 1)\n"
               "                    (default 0.10)\n"
               "  --threshold-for NAME=F  override the threshold for one bench file\n"
               "                    (matched by file name; repeatable)\n"
               "  --gate KEYS       gate exactly these dotted keys instead of the\n"
               "                    default improvement_ratio/speedup set\n");
  std::exit(2);
}

/// introspect::parse_threshold, or exit 2 naming the flag.
double threshold_arg(const char* flag, std::string_view text) {
  const std::optional<double> t = introspect::parse_threshold(text);
  if (!t) {
    std::fprintf(stderr, "bench_diff: %s wants a number in [0, 1), got '%.*s'\n", flag,
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return *t;
}

bool is_dir(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

struct ThresholdOverride {
  std::string name; // bench file name, e.g. "BENCH_smp.json"
  double value = 0.0;
};

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Threshold for one bench file: the last matching --threshold-for wins,
/// otherwise the global --threshold.
double threshold_for(const std::string& name, double fallback,
                     const std::vector<ThresholdOverride>& overrides) {
  double t = fallback;
  for (const ThresholdOverride& o : overrides) {
    if (o.name == name) {
      t = o.value;
    }
  }
  return t;
}

std::optional<introspect::BenchDoc> load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream body;
  body << f.rdbuf();
  auto doc = introspect::parse_bench_json(body.str());
  if (!doc) {
    std::fprintf(stderr, "bench_diff: malformed JSON in %s\n", path.c_str());
  }
  return doc;
}

/// BENCH_*.json names in `dir`, sorted for a stable report order.
std::vector<std::string> bench_files(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return names;
  }
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

/// The rounds of one side: `list` split at commas, each with `suffix`
/// appended ("/NAME" in directory mode).
std::vector<std::string> rounds_of(const std::string& list, const std::string& suffix) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = list.find(',', start);
    out.push_back(list.substr(start, comma - start) + suffix);
    if (comma == std::string::npos) {
      return out;
    }
    start = comma + 1;
  }
}

/// One side's document: the file, or the median of its rounds.
std::optional<introspect::BenchDoc> load_rounds(const std::vector<std::string>& paths) {
  std::vector<introspect::BenchDoc> docs;
  for (const std::string& path : paths) {
    auto doc = load(path);
    if (!doc) {
      return std::nullopt;
    }
    docs.push_back(std::move(*doc));
  }
  return docs.size() == 1 ? docs.front() : introspect::median_of(docs);
}

/// Diff one baseline/current pair (each one file or a list of rounds);
/// returns pass/fail (parse errors count as failure so CI can't silently
/// skip a corrupt report).
bool diff_pair(const std::vector<std::string>& base_paths,
               const std::vector<std::string>& cur_paths, double threshold,
               const std::vector<std::string>& gates, const std::string& title) {
  const auto base = load_rounds(base_paths);
  const auto cur = load_rounds(cur_paths);
  if (!base || !cur) {
    return false;
  }
  const introspect::DiffResult r = introspect::diff_bench(*base, *cur, threshold, gates);
  std::printf("%s", introspect::format_diff(r, title).c_str());
  return r.pass;
}

} // namespace

int main(int argc, char** argv) {
  double threshold = 0.10;
  std::vector<ThresholdOverride> overrides;
  std::vector<std::string> gates;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--threshold") && i + 1 < argc) {
      threshold = threshold_arg("--threshold", argv[++i]);
    } else if (!std::strcmp(argv[i], "--threshold-for") && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "bench_diff: --threshold-for wants NAME=F, got %s\n",
                     spec.c_str());
        usage();
      }
      overrides.push_back(
          {spec.substr(0, eq),
           threshold_arg("--threshold-for", std::string_view(spec).substr(eq + 1))});
    } else if (!std::strcmp(argv[i], "--gate") && i + 1 < argc) {
      std::string list = argv[++i];
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > start) {
          gates.push_back(list.substr(start, end - start));
        }
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
    } else if (argv[i][0] == '-') {
      usage();
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.size() != 2) {
    usage();
  }
  const std::string& baseline = paths[0];
  const std::string& current = paths[1];

  bool pass = true;
  const std::string first_base = rounds_of(baseline, "").front();
  if (is_dir(first_base) && is_dir(rounds_of(current, "").front())) {
    const std::vector<std::string> names = bench_files(first_base);
    if (names.empty()) {
      std::fprintf(stderr, "bench_diff: no BENCH_*.json under %s\n", first_base.c_str());
      return 2;
    }
    for (const std::string& name : names) {
      pass = diff_pair(rounds_of(baseline, "/" + name), rounds_of(current, "/" + name),
                       threshold_for(name, threshold, overrides), gates, name) &&
             pass;
    }
  } else {
    pass = diff_pair(rounds_of(baseline, ""), rounds_of(current, ""),
                     threshold_for(basename_of(first_base), threshold, overrides), gates,
                     current);
  }
  std::printf("bench_diff: %s (default threshold %.4g%%, %zu per-bench override%s)\n",
              pass ? "PASS" : "FAIL", threshold * 100.0, overrides.size(),
              overrides.size() == 1 ? "" : "s");
  return pass ? 0 : 1;
}
