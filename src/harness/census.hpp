// Host-bytes census of the mm layer: the host memory the simulator's own
// structures hold, per owner (ROADMAP item 9's step 1, scoped to mm).
//
// Each owner reports its heap bytes through host_bytes(): the mem_map
// sections, the buddy bitmaps, the page-table node pools, the page-cache
// LRUs and the anon LRU. The census reads them at the end of a run and
// changes nothing, so every result is identical with it on or off.
// `run_experiment --perf-summary` prints it beside the process's VmHWM.
#pragma once

#include <cstdint>
#include <vector>

namespace hpmmap::os {
class Node;
}

namespace hpmmap::harness {

struct HostBytes {
  std::uint64_t mem_map = 0;       // hw::MemMap, Linux zones and Kitten heaps
  std::uint64_t buddy_bitmaps = 0; // BuddyAllocator freelist bitmaps + summaries
  std::uint64_t page_tables = 0;   // PageTable node pools, every process
  std::uint64_t page_cache = 0;    // PageCache LRUs
  std::uint64_t anon_lru = 0;      // os::AnonLru

  [[nodiscard]] std::uint64_t total() const noexcept {
    return mem_map + buddy_bitmaps + page_tables + page_cache + anon_lru;
  }
  HostBytes& operator+=(const HostBytes& o) noexcept;
};

/// One node's census.
[[nodiscard]] HostBytes host_bytes(os::Node& node);

/// The largest world a census saw: `worlds` runs recorded, the one with
/// the most host bytes holding `nodes` nodes and `zones` Linux zones.
struct CensusReport {
  std::uint64_t worlds = 0;
  std::uint64_t nodes = 0;
  std::uint64_t zones = 0;
  HostBytes largest;
};

/// Turn the process-wide census on or off (default off); either way the
/// report starts over.
void set_census(bool on);
/// At a run's end: when the census is on, record the world made of
/// `nodes` (one node, or every node of a cluster). Thread-safe.
void record_census(const std::vector<os::Node*>& nodes);
[[nodiscard]] CensusReport census();

} // namespace hpmmap::harness
