#include "core/kitten_allocator.hpp"

#include <bit>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace hpmmap::core {
namespace {

/// Max order per range: cover the whole range (so a 6 GiB offlined block
/// coalesces into a handful of giant blocks) but cap at 1 GiB past which
/// no page size exists.
unsigned range_max_order(const Range& r) {
  const std::uint64_t pages = r.size() / kSmallPageSize;
  unsigned order = static_cast<unsigned>(std::bit_width(pages)) - 1;
  const unsigned cap = mm::BuddyAllocator::order_for_bytes(kHugePageSize);
  return order > cap ? cap : order;
}

} // namespace

KittenAllocator::KittenAllocator(std::vector<std::vector<Range>> ranges_per_zone) {
  zones_.resize(ranges_per_zone.size());
  for (std::size_t z = 0; z < ranges_per_zone.size(); ++z) {
    for (const Range& r : ranges_per_zone[z]) {
      HPMMAP_ASSERT(is_aligned(r.begin, kMemorySectionSize),
                    "offlined ranges are section-aligned");
      zones_[z].buddies.emplace_back(r, range_max_order(r), kMinOrder);
    }
  }
}

std::optional<Addr> KittenAllocator::alloc(ZoneId zone, std::uint64_t bytes) {
  HPMMAP_ASSERT(zone < zones_.size(), "zone out of range");
  HPMMAP_ASSERT(std::has_single_bit(bytes / kSmallPageSize), "block size must be a power of two");
  const unsigned order = mm::BuddyAllocator::order_for_bytes(bytes);
  for (mm::BuddyAllocator& buddy : zones_[zone].buddies) {
    if (order < kMinOrder || order > buddy.max_order()) {
      continue;
    }
    if (auto a = buddy.alloc(order); a.has_value()) {
      ++stats_.allocs;
      return a->addr;
    }
  }
  ++stats_.failed;
  return std::nullopt;
}

void KittenAllocator::free(ZoneId zone, Addr addr, std::uint64_t bytes) {
  HPMMAP_ASSERT(zone < zones_.size(), "zone out of range");
  const unsigned order = mm::BuddyAllocator::order_for_bytes(bytes);
  for (mm::BuddyAllocator& buddy : zones_[zone].buddies) {
    if (buddy.range().contains(addr)) {
      buddy.free(addr, order);
      ++stats_.frees;
      return;
    }
  }
  HPMMAP_ASSERT(false, "free of a block no Kitten range owns");
}

std::uint64_t KittenAllocator::free_bytes(ZoneId zone) const {
  HPMMAP_ASSERT(zone < zones_.size(), "zone out of range");
  std::uint64_t total = 0;
  for (const mm::BuddyAllocator& buddy : zones_[zone].buddies) {
    total += buddy.free_bytes();
  }
  return total;
}

std::uint64_t KittenAllocator::total_bytes(ZoneId zone) const {
  HPMMAP_ASSERT(zone < zones_.size(), "zone out of range");
  std::uint64_t total = 0;
  for (const mm::BuddyAllocator& buddy : zones_[zone].buddies) {
    total += buddy.total_bytes();
  }
  return total;
}

bool KittenAllocator::frame_is_free(ZoneId zone, Addr addr) const {
  HPMMAP_ASSERT(zone < zones_.size(), "zone out of range");
  for (const mm::BuddyAllocator& buddy : zones_[zone].buddies) {
    if (buddy.range().contains(addr)) {
      return buddy.free_block_containing(addr).has_value();
    }
  }
  return false;
}

bool KittenAllocator::check_consistency() const {
  for (const ZoneHeap& zh : zones_) {
    for (const mm::BuddyAllocator& buddy : zh.buddies) {
      if (!buddy.check_consistency()) {
        return false;
      }
    }
  }
  return true;
}

bool KittenAllocator::all_free() const {
  for (const ZoneHeap& zh : zones_) {
    for (const mm::BuddyAllocator& buddy : zh.buddies) {
      if (buddy.free_bytes() != buddy.total_bytes()) {
        return false;
      }
    }
  }
  return true;
}

} // namespace hpmmap::core
