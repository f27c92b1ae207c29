// Self-test of the benchmark's own arithmetic: the cell digest, the
// paper-fidelity gap, the median, seed derivation, and that the flat
// results format parses with introspect::parse_bench_json (what
// bench_diff reads). Exits 1 on the first failed check.
//
// Usage: perfbench_selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "introspect/bench_diff.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

} // namespace

int main() {
  using perfbench::Digest;

  // FNV-1a: the empty digest is the offset basis; one zero word folds
  // eight zero bytes (reference value computed byte-wise by hand below).
  check(Digest{}.value() == 14695981039346656037ull, "empty digest is the FNV offset basis");
  std::uint64_t h = Digest::kOffset;
  for (int i = 0; i < 8; ++i) {
    h = (h ^ 0u) * Digest::kPrime;
  }
  check(Digest{}.add(std::uint64_t{0}).value() == h, "zero word folds eight zero bytes");
  // Byte order is fixed: 0x01 feeds the low byte first.
  std::uint64_t h1 = (Digest::kOffset ^ 1u) * Digest::kPrime;
  for (int i = 1; i < 8; ++i) {
    h1 = h1 * Digest::kPrime;
  }
  check(Digest{}.add(std::uint64_t{1}).value() == h1, "low byte first");
  // Order matters, and a double goes in by bit pattern.
  check(Digest{}.add(std::uint64_t{1}).add(std::uint64_t{2}).value() !=
            Digest{}.add(std::uint64_t{2}).add(std::uint64_t{1}).value(),
        "digest is order-sensitive");
  check(Digest{}.add(1.0).value() == Digest{}.add(std::uint64_t{0x3ff0000000000000ull}).value(),
        "double folds by bit pattern");
  check(Digest{}.add(0.0).value() != Digest{}.add(-0.0).value(), "-0.0 differs from 0.0");
  check(perfbench::hex(0x1234abcdull) == "0x000000001234abcd", "hex is zero-padded");

  // paper_gap: mean relative error against the paper's values.
  check(near(perfbench::paper_gap({1.15, 1.09}, {1.15, 1.09}), 0.0), "exact match has gap 0");
  check(near(perfbench::paper_gap({1.0, 1.2}, {1.25, 1.0}), (0.2 + 0.2) / 2.0),
        "gap averages |sim - paper| / paper");
  check(near(perfbench::paper_gap({1.0}, {2.0}), perfbench::paper_gap({3.0}, {2.0})),
        "gap is symmetric around the paper value");
  check(std::isnan(perfbench::paper_gap({}, {})), "empty gap is NaN");
  check(std::isnan(perfbench::paper_gap({1.0}, {1.0, 2.0})), "mismatched gap is NaN");
  // The fig7 form: four profile averages against 1.15/1.09/1.16/1.36.
  check(near(perfbench::paper_gap({1.15, 1.09, 1.16, 1.36}, {1.15, 1.09, 1.16, 1.36}), 0.0),
        "fig7 gap at the paper values");

  check(near(perfbench::median({3.0, 1.0, 2.0}), 2.0), "odd median");
  check(near(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5), "even median");
  check(std::isnan(perfbench::median({})), "empty median is NaN");
  check(near(perfbench::mean({1.0, 2.0, 6.0}), 3.0), "mean");
  check(std::isnan(perfbench::mean({})), "empty mean is NaN");

  check(perfbench::derive_seed(1, 7, 0) == perfbench::derive_seed(1, 7, 0), "seeds repeat");
  check(perfbench::derive_seed(1, 7, 0) != perfbench::derive_seed(2, 7, 0), "seed varies by base");
  check(perfbench::derive_seed(1, 7, 0) != perfbench::derive_seed(1, 8, 0), "seed varies by tag");
  check(perfbench::derive_seed(1, 7, 0) != perfbench::derive_seed(1, 7, 1), "seed varies by index");

  // The results file shape parses, including null and dotted names.
  const char* doc = R"({"bench": "perfbench", "seed": 1, "env": {"nproc": 4},
    "metrics": {"wall_s": 1.5, "cluster.parallel_speedup": null},
    "digests": {"HPCCG.A.c1.HPMMAP": "0x00000000000000ff"}})";
  const auto parsed = hpmmap::introspect::parse_bench_json(doc);
  check(parsed.has_value(), "results JSON parses");
  if (parsed.has_value()) {
    check(parsed->numbers.count("metrics.wall_s") == 1 &&
              near(parsed->numbers.at("metrics.wall_s"), 1.5),
          "metric flattened with a dotted key");
    check(parsed->numbers.count("env.nproc") == 1, "env stamp flattened");
    check(parsed->strings.count("digests.HPCCG.A.c1.HPMMAP") == 1, "digest kept as a string");
  }

  if (failures == 0) {
    std::printf("perfbench_selftest: all checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}
