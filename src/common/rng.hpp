// Deterministic random number generation.
//
// Every experiment derives all of its randomness from a single seed via
// independent named streams, so a run is reproducible bit-for-bit and two
// configurations under comparison see the *same* workload randomness
// (common random numbers — the variance reduction used throughout the
// benchmark harness).
#pragma once

#include <cstdint>
#include <string_view>

namespace hpmmap {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded through SplitMix64.
/// Chosen over std::mt19937_64 for speed and a guaranteed stable stream
/// across standard libraries (libstdc++ vs libc++ agree on nothing here).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Derive an independent child stream; `salt` names the consumer
  /// (e.g. per-rank, per-subsystem) so adding a consumer does not perturb
  /// the draws seen by existing ones.
  [[nodiscard]] Rng fork(std::uint64_t salt) const noexcept;
  [[nodiscard]] Rng fork(std::string_view salt) const noexcept;

  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  [[nodiscard]] std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform in [lo, hi] inclusive.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform_double() noexcept;

  /// Standard normal via Box-Muller (no cached spare: keeps the state
  /// a pure function of draw count).
  [[nodiscard]] double normal() noexcept;
  [[nodiscard]] double normal(double mean, double stdev) noexcept;

  /// Lognormal given the mean/stdev of the *resulting* distribution —
  /// the natural parameterization for latency components where the paper
  /// reports sample mean and stdev.
  [[nodiscard]] double lognormal_from_moments(double mean, double stdev) noexcept;

  /// Exponential with the given mean.
  [[nodiscard]] double exponential(double mean) noexcept;

  /// Pareto (heavy tail) with given minimum and shape alpha > 0.
  [[nodiscard]] double pareto(double minimum, double alpha) noexcept;

  /// Bernoulli draw.
  [[nodiscard]] bool chance(double p) noexcept;

  // UniformRandomBitGenerator interface so <algorithm> shuffles work.
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }
  result_type operator()() noexcept { return next_u64(); }

 private:
  std::uint64_t s_[4];
};

/// Walked as its 32 raw state bytes: Rng is no aggregate, so the default
/// field list (snapshot/archive.hpp) cannot walk it.
template <class Ar>
void fields(Ar& ar, Rng& r) {
  ar.pod(r);
}

} // namespace hpmmap
