// Four-level x86-64 page tables (PML4 -> PDPT -> PD -> PT).
//
// Both memory managers drive this structure: Linux installs 4K PTEs and
// 2M PD entries through the fault path; HPMMAP installs 2M/1G leaves
// directly at allocation time in an otherwise-unused region of the
// 48-bit address space (§III-B). The structure is real — walks descend
// real levels, splits really replace a leaf with 512 children — while
// costs are charged by the caller from the step counts returned here.
//
// Entries are packed 8-byte words, like the hardware's: bit 0 = leaf,
// bit 1 = child present, bits 2-4 = protection, and the 4K-aligned
// payload from bit 12 (a physical frame for leaves, a node-pool index
// for children). Nodes are exactly 4 KiB (512 words) and live in an
// index-addressed pool with a free list, so a walk touches one cache
// line per level and map/unmap never call the heap once the pool is
// warm. The pool grows in fixed 16-node chunks: a node's address never
// moves (map() holds a slot reference across alloc_node()), growth
// never copies, and indexing is two shifts with no iterator arithmetic.
//
// A one-entry paging-structure cache remembers the last 2 MiB region
// resolved to its PT (level-0) node, the way a CPU's PDE cache skips the
// upper levels. walk(), small_count_in_2m() and 4K map()/unmap() consult
// it, so a demand-fault storm through one region descends the table
// once rather than once per call. It only ever caches a PD entry that
// points at a child PT, and such an entry changes in exactly these
// places, each of which drops the cache:
//   - free_node() (the freed index may be recycled for another region);
//   - 2M/1G map() (the khugepaged collapse frees the region's empty PT);
//   - split_large() (installs a fresh PT in place of a 2M leaf);
//   - snapshot restore (replaces every node).
// unmap() never frees nodes, so it leaves the cache valid. A hit reports
// the same PtOpStats as a full descent (levels = 4, no tables
// allocated), so cost accounting cannot tell the difference.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "hw/tlb.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::mm {

struct Translation {
  Addr phys = 0;
  PageSize size = PageSize::k4K;
  Prot prot = Prot::kNone;
};

/// Step counts for cost accounting: levels descended and table pages
/// freshly allocated during the operation.
struct PtOpStats {
  unsigned levels = 0;
  unsigned tables_allocated = 0;
  unsigned entries_written = 0;
};

class PageTable {
 public:
  PageTable();
  ~PageTable() = default;
  PageTable(PageTable&&) noexcept = default;
  PageTable& operator=(PageTable&&) noexcept = default;
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  /// Install a leaf mapping. Fails with kExist if any part of the region
  /// is already mapped, kInval on misalignment.
  Errno map(Addr vaddr, Addr paddr, PageSize size, Prot prot, PtOpStats* stats = nullptr);

  /// Remove the leaf at `vaddr` (must match `size`). kNoEnt if absent.
  Errno unmap(Addr vaddr, PageSize size, PtOpStats* stats = nullptr);

  /// Change protections on an existing leaf.
  Errno protect(Addr vaddr, PageSize size, Prot prot);

  /// Translate. nullopt when unmapped.
  [[nodiscard]] std::optional<Translation> walk(Addr vaddr) const;

  /// Split a 2M leaf into 512 4K leaves covering the same physical range
  /// (what THP does when a large page must be mlocked, §II-B). Returns
  /// kNoEnt if no 2M leaf maps `vaddr`.
  Errno split_large(Addr vaddr, PtOpStats* stats = nullptr);

  /// Byte totals of current leaf mappings per page size — the MappingMix
  /// the TLB model consumes.
  [[nodiscard]] hw::MappingMix mapping_mix() const noexcept { return mix_; }

  /// Count of leaf mappings whose translation lies in [range).
  [[nodiscard]] std::uint64_t mapped_bytes(Range vrange) const;

  /// Number of 4K leaves inside the 2M-aligned region containing `vaddr`
  /// — O(depth), used by khugepaged to pick merge candidates.
  [[nodiscard]] unsigned small_count_in_2m(Addr vaddr) const;

  /// True if a 2M (or larger) leaf already covers `vaddr`.
  [[nodiscard]] bool large_leaf_at(Addr vaddr) const;

  /// Pages consumed by the table structure itself.
  [[nodiscard]] std::uint64_t table_pages() const noexcept { return table_pages_; }

  /// Visit every leaf as (vaddr, Translation); deterministic order.
  template <typename Fn>
  void for_each_leaf(Fn&& fn) const {
    visit_leaves(kRoot, 0, 3, fn);
  }

 private:
  friend struct hpmmap::snapshot::Access;

  static constexpr unsigned kFanout = 512;
  static constexpr std::uint32_t kRoot = 0;
  static constexpr std::uint64_t kLeafBit = 1;
  static constexpr std::uint64_t kChildBit = 2;

  /// A table page: 512 packed entry words, exactly 4 KiB.
  struct Node {
    std::array<std::uint64_t, kFanout> slots;
  };

  /// Index-addressed node storage in fixed chunks of 2^kChunkShift
  /// nodes. Chunks are allocated uninitialised; append() hands out the
  /// next index and its owner fills the slots.
  class NodePool {
   public:
    NodePool() = default;
    NodePool(NodePool&& other) noexcept
        : chunks_(std::move(other.chunks_)), size_(std::exchange(other.size_, 0)) {}
    NodePool& operator=(NodePool&& other) noexcept {
      chunks_ = std::move(other.chunks_);
      size_ = std::exchange(other.size_, 0);
      return *this;
    }

    [[nodiscard]] Node& operator[](std::uint32_t idx) noexcept {
      return chunks_[idx >> kChunkShift][idx & kChunkMask];
    }
    [[nodiscard]] const Node& operator[](std::uint32_t idx) const noexcept {
      return chunks_[idx >> kChunkShift][idx & kChunkMask];
    }
    [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
    /// Grow by one node with unspecified contents; returns its index.
    std::uint32_t append() {
      if ((size_ & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique_for_overwrite<Node[]>(kChunkMask + 1));
      }
      return size_++;
    }
    void clear() noexcept {
      chunks_.clear();
      size_ = 0;
    }

   private:
    static constexpr unsigned kChunkShift = 4;
    static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;
    std::vector<std::unique_ptr<Node[]>> chunks_;
    std::uint32_t size_ = 0;
  };

  [[nodiscard]] static constexpr bool is_leaf(std::uint64_t e) noexcept {
    return (e & kLeafBit) != 0;
  }
  [[nodiscard]] static constexpr bool has_child(std::uint64_t e) noexcept {
    return (e & kChildBit) != 0;
  }
  [[nodiscard]] static constexpr Addr leaf_phys(std::uint64_t e) noexcept {
    return e & ~Addr{0xFFF};
  }
  [[nodiscard]] static constexpr Prot leaf_prot(std::uint64_t e) noexcept {
    return static_cast<Prot>((e >> 2) & 0x7u);
  }
  [[nodiscard]] static constexpr std::uint64_t make_leaf(Addr phys, Prot prot) noexcept {
    return phys | (static_cast<std::uint64_t>(prot) << 2) | kLeafBit;
  }
  [[nodiscard]] static constexpr std::uint32_t child_index(std::uint64_t e) noexcept {
    return static_cast<std::uint32_t>(e >> 12);
  }
  [[nodiscard]] static constexpr std::uint64_t make_child(std::uint32_t idx) noexcept {
    return (static_cast<std::uint64_t>(idx) << 12) | kChildBit;
  }

  /// Index of `vaddr` at `level` (level 3 = PML4 ... level 0 = PT).
  [[nodiscard]] static unsigned index_at(Addr vaddr, unsigned level) noexcept {
    return static_cast<unsigned>((vaddr >> (12 + 9 * level)) & (kFanout - 1));
  }
  /// Leaf level for a page size: 0 for 4K, 1 for 2M, 2 for 1G.
  [[nodiscard]] static unsigned leaf_level(PageSize size) noexcept;

  template <typename Fn>
  void visit_leaves(std::uint32_t node, Addr base, unsigned level, Fn&& fn) const {
    for (unsigned i = 0; i < kFanout; ++i) {
      const std::uint64_t e = nodes_[node].slots[i];
      const Addr va = base | (static_cast<Addr>(i) << (12 + 9 * level));
      if (is_leaf(e)) {
        const PageSize size = level == 0   ? PageSize::k4K
                              : level == 1 ? PageSize::k2M
                                           : PageSize::k1G;
        fn(va, Translation{leaf_phys(e), size, leaf_prot(e)});
      } else if (has_child(e)) {
        visit_leaves(child_index(e), va, level - 1, fn);
      }
    }
  }

  [[nodiscard]] std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);
  void account_map(PageSize size, std::int64_t delta) noexcept;

  /// Cache key: the 2 MiB region number of `vaddr`.
  [[nodiscard]] static constexpr Addr region_of(Addr vaddr) noexcept { return vaddr >> 21; }
  [[nodiscard]] bool pt_cached(Addr vaddr) const noexcept {
    return region_of(vaddr) == cached_region_;
  }
  void remember_pt(Addr vaddr, std::uint32_t pt) const noexcept {
    cached_region_ = region_of(vaddr);
    cached_pt_ = pt;
  }
  void forget_pt() noexcept { cached_region_ = kNoRegion; }

  static constexpr Addr kNoRegion = ~Addr{0}; // no 64-bit vaddr >> 21 reaches it

  NodePool nodes_;
  std::vector<std::uint16_t> used_;      // live entries per node
  std::vector<std::uint32_t> free_nodes_; // recycled pool indices
  hw::MappingMix mix_;
  std::uint64_t table_pages_ = 1; // the root
  // Paging-structure cache (see the header comment): region -> PT node.
  mutable Addr cached_region_ = kNoRegion;
  mutable std::uint32_t cached_pt_ = 0;
};

} // namespace hpmmap::mm
