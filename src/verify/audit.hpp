// Cross-structure invariant audit over the live mm state.
//
// The simulation argues from structures that are real (buddy freelists,
// four-level page tables, VMA trees, per-zone pools), so their joint
// consistency is checkable — and checking it is how we notice the
// simulation drifting from kernel semantics (the imitation-model failure
// Virtuoso warns about). The auditor walks a Node and asserts:
//
//   buddy      free blocks in-range, aligned, non-overlapping, no
//              duplicates; every mergeable buddy pair coalesced;
//              accounted free_bytes equals the sum over the freelists
//              (same checks for the Kitten heaps over offlined memory);
//              the per-order bitmaps are the only record of a free
//              block, so a lost bit shows as an accounting drift and a
//              block handed to a second owner while free shows in the
//              frame sweep below;
//   cache      the page cache's two records agree: every LRU entry's
//              index bit is set, the index holds no block the LRU does
//              not reach, the LRU holds each block once, and its byte
//              total is cached_bytes;
//   vma        every per-process VMA tree (Linux and HPMMAP's own
//              region lists) passes its structural invariants;
//   pte        every mapped leaf falls wholly inside exactly one VMA of
//              its owning process with matching protections; leaves in
//              the HPMMAP window belong to registered pids and sit on
//              offlined frames, all other leaves on online frames;
//              swapped-out pages are never simultaneously mapped; the
//              stored MappingMix (what the TLB model consumes — the
//              analogue of "no TLB entry points at an unmapped frame"
//              for an analytic TLB) equals a recount over the leaves;
//   frames     one global sweep: mapped frames, buddy free blocks, page
//              cache blocks, hugetlb pool pages, per-CPU pcp frames and
//              Kitten free blocks are pairwise disjoint — no frame is
//              leaked into two owners or double-mapped across
//              processes, and every frame lies inside physical RAM;
//   pcp        when the node runs an SmpDomain, every frame parked on a
//              per-CPU page-frame cache lies in its zone's range and is
//              owned by exactly one CPU's list (a frame on two lists is
//              the double-free shape pcp corruption takes);
//   hugetlb    pool pages are conserved: free + mapped-as-hugetlb
//              equals the boot reservation; each zone's pool stack walks
//              to exactly free_pages() entries, and its pooled bits are
//              exactly the stack's pages.
//
// The auditor only reads; it reports violations instead of asserting so
// tests can drive it over deliberately corrupted state.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hpmmap::mm {
class BuddyAllocator;
class PageCache;
}
namespace hpmmap::os {
class Node;
}

namespace hpmmap::verify {

struct Violation {
  std::string check;  // dotted id, e.g. "buddy.uncoalesced"
  std::string detail; // precise diagnostic (addresses, zone, pid)
};

struct AuditReport {
  /// Retained-violation cap: corrupt state can trip thousands of checks;
  /// keep the first few precisely and count the rest.
  static constexpr std::size_t kMaxViolations = 64;

  std::uint64_t checks = 0;
  std::vector<Violation> violations;
  std::uint64_t dropped = 0;

  void add(std::string check, std::string detail);
  [[nodiscard]] std::uint64_t violation_count() const noexcept {
    return violations.size() + dropped;
  }
  [[nodiscard]] bool ok() const noexcept { return violations.empty() && dropped == 0; }
  /// Human-readable multi-line report ("audit: N checks, M violations" +
  /// one line per retained violation).
  [[nodiscard]] std::string summary() const;
};

/// Audit one buddy allocator in isolation (no Node needed): blocks
/// in-range, aligned, non-overlapping, no duplicates, no uncoalesced
/// buddy pairs, free_bytes consistent. `label` prefixes diagnostics.
void audit_buddy(const mm::BuddyAllocator& buddy, std::string_view label, AuditReport& report);

/// Audit one page cache: LRU against index, duplicates and byte
/// accounting (the `cache` block above).
void audit_page_cache(const mm::PageCache& cache, std::string_view label, AuditReport& report);

class MmAuditor {
 public:
  explicit MmAuditor(os::Node& node) noexcept : node_(node) {}

  /// Run every check; also bumps the audit.runs / audit.checks /
  /// audit.violations metrics and emits a kVerify trace event.
  [[nodiscard]] AuditReport run();

 private:
  void audit_buddies(AuditReport& report);
  void audit_caches(AuditReport& report);
  void audit_vmas(AuditReport& report);
  void audit_page_tables(AuditReport& report);
  void audit_frames(AuditReport& report);
  void audit_hugetlb(AuditReport& report);
  void audit_pcp(AuditReport& report);

  os::Node& node_;
};

} // namespace hpmmap::verify
