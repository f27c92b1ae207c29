#include "harness/census.hpp"

#include <atomic>
#include <mutex>

#include "core/kitten_allocator.hpp"
#include "core/module.hpp"
#include "linux_mm/memory_system.hpp"
#include "os/node.hpp"
#include "os/process.hpp"

namespace hpmmap::harness {
namespace {

std::atomic<bool> g_on{false};
std::mutex g_mu;
CensusReport g_report;

} // namespace

HostBytes& HostBytes::operator+=(const HostBytes& o) noexcept {
  buddy_bitmaps += o.buddy_bitmaps;
  page_tables += o.page_tables;
  page_cache += o.page_cache;
  anon_lru += o.anon_lru;
  return *this;
}

HostBytes host_bytes(os::Node& node) {
  HostBytes h;
  mm::MemorySystem& memory = node.memory();
  for (ZoneId z = 0; z < memory.zone_count(); ++z) {
    h.buddy_bitmaps += memory.buddy(z).host_bytes();
    h.page_cache += memory.cache(z).host_bytes();
  }
  if (const core::HpmmapModule* module = node.hpmmap_module(); module != nullptr) {
    module->allocator().for_each_buddy([&](ZoneId, const mm::BuddyAllocator& buddy) {
      h.buddy_bitmaps += buddy.host_bytes();
    });
  }
  node.for_each_process(
      [&](const os::Process& p) { h.page_tables += p.address_space().page_table().host_bytes(); });
  h.anon_lru = node.anon_lru().host_bytes();
  return h;
}

void set_census(bool on) {
  const std::lock_guard lock(g_mu);
  g_on.store(on, std::memory_order_relaxed);
  g_report = CensusReport{};
}

void record_census(const std::vector<os::Node*>& nodes) {
  if (!g_on.load(std::memory_order_relaxed)) {
    return;
  }
  HostBytes world;
  std::uint64_t zones = 0;
  for (os::Node* node : nodes) {
    world += host_bytes(*node);
    zones += node->memory().zone_count();
  }
  const std::lock_guard lock(g_mu);
  ++g_report.worlds;
  if (world.total() > g_report.largest.total()) {
    g_report.largest = world;
    g_report.nodes = nodes.size();
    g_report.zones = zones;
  }
}

CensusReport census() {
  const std::lock_guard lock(g_mu);
  return g_report;
}

} // namespace hpmmap::harness
