#include "hw/bandwidth.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace hpmmap::hw {

BandwidthModel::BandwidthModel(std::uint32_t zones, double zone_capacity_bytes_per_cycle)
    : state_{.entries = {},
             .zone_demand = std::vector<double>(zones, 0.0),
             .capacity = zone_capacity_bytes_per_cycle} {
  HPMMAP_ASSERT(zones > 0, "need at least one zone");
  HPMMAP_ASSERT(state_.capacity > 0.0, "zone bandwidth must be positive");
}

BandwidthModel::Consumer BandwidthModel::register_consumer() { return Consumer{state_.next_id++}; }

void BandwidthModel::set_demand(Consumer c, ZoneId zone, double bytes_per_cycle) {
  HPMMAP_ASSERT(zone < state_.zone_demand.size(), "zone out of range");
  HPMMAP_ASSERT(bytes_per_cycle >= 0.0, "demand cannot be negative");
  for (Entry& e : state_.entries) {
    if (e.consumer == c.id && e.zone == zone) {
      state_.zone_demand[zone] += bytes_per_cycle - e.demand;
      e.demand = bytes_per_cycle;
      return;
    }
  }
  state_.entries.push_back(Entry{c.id, zone, bytes_per_cycle});
  state_.zone_demand[zone] += bytes_per_cycle;
}

void BandwidthModel::clear_demand(Consumer c) {
  for (auto it = state_.entries.begin(); it != state_.entries.end();) {
    if (it->consumer == c.id) {
      state_.zone_demand[it->zone] -= it->demand;
      it = state_.entries.erase(it);
    } else {
      ++it;
    }
  }
}

double BandwidthModel::contention_factor(ZoneId zone) const noexcept {
  if (zone >= state_.zone_demand.size()) {
    return 1.0;
  }
  const double demand = state_.zone_demand[zone];
  return demand <= state_.capacity ? 1.0 : demand / state_.capacity;
}

double BandwidthModel::effective_rate(ZoneId zone, double bytes_per_cycle) const noexcept {
  if (zone >= state_.zone_demand.size()) {
    return bytes_per_cycle;
  }
  const double others = state_.zone_demand[zone];
  const double total = others + bytes_per_cycle;
  if (total <= state_.capacity) {
    return bytes_per_cycle;
  }
  // Proportional sharing of the saturated channel.
  return state_.capacity * bytes_per_cycle / total;
}

double BandwidthModel::total_demand(ZoneId zone) const noexcept {
  return zone < state_.zone_demand.size() ? state_.zone_demand[zone] : 0.0;
}

} // namespace hpmmap::hw
