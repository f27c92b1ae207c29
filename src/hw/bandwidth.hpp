// Memory-bandwidth contention model.
//
// Co-located workloads share DRAM channels whichever memory manager they
// use — HPMMAP partitions *capacity*, not bandwidth — so both the Linux
// and HPMMAP configurations see bandwidth interference. What differs is
// how much additional manager-level traffic (zeroing, copies, reclaim
// writeback) each stack adds. Consumers register a streaming demand in
// bytes/cycle per zone; the model hands back a slowdown factor.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::hw {

class BandwidthModel {
 public:
  BandwidthModel(std::uint32_t zones, double zone_capacity_bytes_per_cycle);

  /// Opaque consumer handle; demand can be retargeted as phases change.
  struct Consumer {
    std::uint32_t id = 0;
  };

  [[nodiscard]] Consumer register_consumer();
  void set_demand(Consumer c, ZoneId zone, double bytes_per_cycle);
  void clear_demand(Consumer c);

  /// Multiplicative latency factor (>= 1) a memory-bound operation in
  /// `zone` currently experiences: 1 while total demand fits, rising
  /// linearly with oversubscription.
  [[nodiscard]] double contention_factor(ZoneId zone) const noexcept;

  /// Effective streaming rate for an operation that wants
  /// `bytes_per_cycle` in `zone` (used for page zeroing/copy costs).
  [[nodiscard]] double effective_rate(ZoneId zone, double bytes_per_cycle) const noexcept;

  [[nodiscard]] double total_demand(ZoneId zone) const noexcept;
  [[nodiscard]] double capacity() const noexcept { return state_.capacity; }

  struct Entry {
    std::uint32_t consumer;
    ZoneId zone;
    double demand;
  };
  /// The members a snapshot image holds as they are (snapshot/image.hpp).
  struct State {
    std::vector<Entry> entries;
    std::vector<double> zone_demand;
    double capacity = 0.0;
    std::uint32_t next_id = 1;
  };

 private:
  friend struct hpmmap::snapshot::Access;

  State state_;
};

} // namespace hpmmap::hw
