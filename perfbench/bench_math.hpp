// Pure arithmetic of the end-to-end benchmark: the per-cell digest of
// simulated statistics, the paper-fidelity gap, medians, and seed
// derivation. Header-only so the self-test checks exactly what the
// benchmark computes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/// FNV-1a over 64-bit words (each fed as its 8 little-endian bytes).
/// Doubles go in by bit pattern, so a digest pins simulated results
/// exactly — any drift in any folded statistic changes it.
class Digest {
 public:
  static constexpr std::uint64_t kOffset = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  Digest& add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= kPrime;
    }
    return *this;
  }
  Digest& add(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = kOffset;
};

[[nodiscard]] inline std::string hex(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s = "0x0000000000000000";
  for (std::size_t i = 0; i < 16; ++i) {
    s[17 - i] = kDigits[(v >> (4 * i)) & 0xfu];
  }
  return s;
}

/// Mean relative error of simulated ratios against the paper's values:
/// mean_i |sim_i - paper_i| / paper_i. Lower is better; 0 = exact. NaN
/// when the inputs are empty or mismatched.
[[nodiscard]] inline double paper_gap(const std::vector<double>& sim,
                                      const std::vector<double>& paper) {
  if (sim.empty() || sim.size() != paper.size()) {
    return NAN;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    sum += std::fabs(sim[i] - paper[i]) / paper[i];
  }
  return sum / static_cast<double>(sim.size());
}

/// Median of a sample (mean of the middle two for even sizes); NaN when
/// empty.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) {
    return NAN;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Arithmetic mean; NaN when empty.
[[nodiscard]] inline double mean(const std::vector<double>& v) {
  if (v.empty()) {
    return NAN;
  }
  double sum = 0.0;
  for (const double x : v) {
    sum += x;
  }
  return sum / static_cast<double>(v.size());
}

/// splitmix64 finalizer: independent, well-mixed per-cell seeds from the
/// benchmark's --seed, a workload tag and an index.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t base, std::uint64_t tag,
                                               std::uint64_t index) noexcept {
  std::uint64_t z = base * 0x9e3779b97f4a7c15ull + tag * 0xbf58476d1ce4e5b9ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

} // namespace perfbench
