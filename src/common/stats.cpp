#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

#include "common/assert.hpp"

namespace hpmmap {

void RunningStats::add(double x) noexcept {
  if (state_.n == 0) {
    state_.min = state_.max = x;
  } else {
    state_.min = std::min(state_.min, x);
    state_.max = std::max(state_.max, x);
  }
  ++state_.n;
  state_.sum += x;
  const double delta = x - state_.mean;
  state_.mean += delta / static_cast<double>(state_.n);
  state_.m2 += delta * (x - state_.mean);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.state_.n == 0) {
    return;
  }
  if (state_.n == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(state_.n);
  const auto nb = static_cast<double>(other.state_.n);
  const double delta = other.state_.mean - state_.mean;
  const double total = na + nb;
  state_.mean += delta * nb / total;
  state_.m2 += other.state_.m2 + delta * delta * na * nb / total;
  state_.n += other.state_.n;
  state_.sum += other.state_.sum;
  state_.min = std::min(state_.min, other.state_.min);
  state_.max = std::max(state_.max, other.state_.max);
}

double RunningStats::variance() const noexcept {
  return state_.n > 1 ? state_.m2 / static_cast<double>(state_.n - 1) : 0.0;
}

double RunningStats::stdev() const noexcept { return std::sqrt(variance()); }

void Samples::ensure_sorted() const {
  if (!sorted_valid_ || sorted_.size() != xs_.size()) {
    sorted_ = xs_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Samples::mean() const noexcept {
  if (xs_.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double x : xs_) {
    s += x;
  }
  return s / static_cast<double>(xs_.size());
}

double Samples::stdev() const noexcept {
  if (xs_.size() < 2) {
    return 0.0;
  }
  const double m = mean();
  double s2 = 0.0;
  for (double x : xs_) {
    s2 += (x - m) * (x - m);
  }
  return std::sqrt(s2 / static_cast<double>(xs_.size() - 1));
}

double Samples::min() const noexcept {
  return xs_.empty() ? 0.0 : *std::min_element(xs_.begin(), xs_.end());
}

double Samples::max() const noexcept {
  return xs_.empty() ? 0.0 : *std::max_element(xs_.begin(), xs_.end());
}

double Samples::percentile(double p) const {
  HPMMAP_ASSERT(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  if (xs_.empty()) {
    return 0.0;
  }
  ensure_sorted();
  if (sorted_.size() == 1) {
    return sorted_[0];
  }
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) {
    return sorted_.back();
  }
  return sorted_[lo] + frac * (sorted_[lo + 1] - sorted_[lo]);
}

P2Quantile::P2Quantile(double q)
    : state_{.q = q,
             .desired = {1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0},
             .increments = {0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0}} {
  HPMMAP_ASSERT(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
}

void P2Quantile::add(double x) noexcept {
  auto& [q, n, heights, positions, desired, increments] = state_;
  if (n < 5) {
    heights[n] = x;
    ++n;
    if (n == 5) {
      std::sort(heights.begin(), heights.end());
      for (std::size_t i = 0; i < 5; ++i) {
        positions[i] = static_cast<double>(i + 1);
      }
    }
    return;
  }
  ++n;

  // Locate the cell containing x and clamp the extreme markers.
  std::size_t k;
  if (x < heights[0]) {
    heights[0] = x;
    k = 0;
  } else if (x >= heights[4]) {
    heights[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights[k + 1]) {
      ++k;
    }
  }
  for (std::size_t i = k + 1; i < 5; ++i) {
    positions[i] += 1.0;
  }
  for (std::size_t i = 0; i < 5; ++i) {
    desired[i] += increments[i];
  }

  // Adjust the interior markers toward their desired positions with
  // piecewise-parabolic (P²) interpolation, falling back to linear when
  // the parabola would leave the bracket.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired[i] - positions[i];
    const double dp = positions[i + 1] - positions[i];
    const double dm = positions[i - 1] - positions[i];
    if ((d >= 1.0 && dp > 1.0) || (d <= -1.0 && dm < -1.0)) {
      const double sign = d >= 0.0 ? 1.0 : -1.0;
      const double hp = (heights[i + 1] - heights[i]) / dp; // slope toward upper neighbour
      const double hm = (heights[i - 1] - heights[i]) / dm; // slope toward lower neighbour
      const double parabolic =
          heights[i] + sign / (dp - dm) * ((sign - dm) * hp + (dp - sign) * hm);
      double candidate;
      if (heights[i - 1] < parabolic && parabolic < heights[i + 1]) {
        candidate = parabolic;
      } else {
        candidate = heights[i] + sign * (sign > 0.0 ? hp : hm);
      }
      heights[i] = candidate;
      positions[i] += sign;
    }
  }
}

double P2Quantile::value() const noexcept {
  const auto& [q, n, heights, positions, desired, increments] = state_;
  if (n == 0) {
    return 0.0;
  }
  if (n < 5) {
    // Exact small-sample quantile over what we have.
    std::array<double, 5> tmp = heights;
    std::sort(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(n));
    const double rank = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= n) {
      return tmp[n - 1];
    }
    return tmp[lo] + frac * (tmp[lo + 1] - tmp[lo]);
  }
  return heights[2];
}

TailQuantiles::TailQuantiles()
    : q_{P2Quantile(kQuantiles[0]), P2Quantile(kQuantiles[1]), P2Quantile(kQuantiles[2]),
         P2Quantile(kQuantiles[3])} {}

void TailQuantiles::add(double x) noexcept {
  for (P2Quantile& q : q_) {
    q.add(x);
  }
  stats_.add(x);
}

double TailQuantiles::value(std::size_t i) const noexcept {
  return i < kCount ? q_[i].value() : 0.0;
}

void Log2Histogram::add(std::uint64_t x) noexcept {
  const unsigned bucket = x == 0 ? 0 : static_cast<unsigned>(std::bit_width(x) - 1);
  ++buckets_[bucket < kBuckets ? bucket : kBuckets - 1];
  ++total_;
}

std::uint64_t Log2Histogram::bucket_count(unsigned bucket) const noexcept {
  return bucket < kBuckets ? buckets_[bucket] : 0;
}

} // namespace hpmmap
