// Node snapshot/restore (DESIGN.md §12).
//
// capture_world() deep-copies every structure of a quiesced simulation —
// engine clock and pending events, buddy bitmaps, the mem_map meta
// bytes, page-cache LRU FIFOs, packed page tables, hugetlb pool stacks,
// VMA trees, the PID registry, module state, the flight recorder,
// metrics and the fault injector — into a WorldImage.
// restore_world() overwrites a freshly booted world (same configuration,
// aging skipped) with the image and re-arms each owner's captured events,
// after which the resumed run is event-for-event identical to the run
// that never stopped. The harness uses this to age a node once and fan many
// measurement configurations out from the same aged state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/image.hpp"

namespace hpmmap::mm {
class BuddyAllocator;
class PageTable;
}
namespace hpmmap::os {
class Node;
}
namespace hpmmap::sim {
class Engine;
}
namespace hpmmap::workloads {
class KernelBuild;
}

namespace hpmmap::snapshot {

/// A kernel build participating in the world, tagged with the node it
/// churns (scaling worlds run one or more builds per node).
struct BuildRef {
  workloads::KernelBuild* build = nullptr;
  std::uint32_t node_index = 0;
};

/// Capture the complete state of `engine` plus `nodes` and `builds`.
/// Every pending engine event must belong to one of the passed owners
/// (asserted); capture at a quiesced instant — after run_until(), never
/// from inside a callback.
[[nodiscard]] WorldImage capture_world(sim::Engine& engine,
                                       const std::vector<os::Node*>& nodes,
                                       const std::vector<BuildRef>& builds = {});

/// Overwrite a freshly constructed world with `image`. The target must
/// be structurally identical to the captured one (same node/zone layout
/// and clock, same builds constructed but not started); each owner
/// asserts its layout before its state is overwritten.
/// Also restores this thread's flight recorder, metrics and injector
/// counters (the injector's on_fire hook is left untouched).
void restore_world(const WorldImage& image, sim::Engine& engine,
                   const std::vector<os::Node*>& nodes,
                   const std::vector<BuildRef>& builds = {});

/// The page-table piece of capture_world()/restore_world(): image one
/// table, or overwrite `pt` with an image (its paging-structure cache is
/// dropped). Exposed for the page-table differential test.
[[nodiscard]] PageTableImage capture_page_table(const mm::PageTable& pt);
void restore_page_table(const PageTableImage& image, mm::PageTable& pt);

/// The buddy piece of capture_world(): image one allocator, scan hints
/// included. Exposed for the buddy property tests.
[[nodiscard]] BuddyImage capture_buddy(const mm::BuddyAllocator& buddy);

/// Fire exactly the next pending event (time-travel single-stepping for
/// the replay-to-anomaly harness). Returns false when nothing fired.
bool step_one(sim::Engine& engine);

/// Binary serialization for --snapshot-out / --snapshot-in. Trace
/// strings are interned into a process-lifetime pool on load.
void save(const WorldImage& image, const std::string& path);
[[nodiscard]] WorldImage load(const std::string& path);

} // namespace hpmmap::snapshot
