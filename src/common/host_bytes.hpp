// Heap bytes of the standard containers the host-bytes census counts
// (harness/census.hpp): what an owner's lists hold in host memory, from
// their capacities.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

namespace hpmmap {

template <class T>
[[nodiscard]] std::uint64_t host_bytes_of(const std::vector<T>& v) noexcept {
  return v.capacity() * sizeof(T);
}

/// libstdc++'s layout: 512-byte nodes (one element per node for larger
/// types), enough for every element plus the one the back fills next,
/// and a node map of at least 8 pointers.
template <class T>
[[nodiscard]] std::uint64_t host_bytes_of(const std::deque<T>& d) noexcept {
  constexpr std::uint64_t per_node = sizeof(T) < 512 ? 512 / sizeof(T) : 1;
  const std::uint64_t nodes = d.size() / per_node + 1;
  return nodes * per_node * sizeof(T) + std::max<std::uint64_t>(8, nodes + 2) * sizeof(void*);
}

} // namespace hpmmap
